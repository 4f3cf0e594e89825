package experiment

import (
	"context"
	"encoding/json"
	"fmt"

	"beaconsec/internal/analysis"
	"beaconsec/internal/cache"
	"beaconsec/internal/core"
	"beaconsec/internal/geo"
	"beaconsec/internal/harness"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// Fig4 regenerates Figure 4: the empirical CDF of the no-attack RTT,
// measured over 10,000 request/reply exchanges (500 in quick mode), with
// the x_min / x_max / spread headline values.
func Fig4(o Options) (Result, error) {
	trials := 10000
	if o.Quick {
		trials = 500
	}
	cal, err := core.CalibrateRTTWorkers(trials, phy.DefaultJitter(), o.Seed, o.Workers)
	if err != nil {
		return Result{}, err
	}
	var xs, ys []float64
	const points = 120
	span := cal.XMax() - cal.XMin()
	for i := 0; i <= points; i++ {
		x := cal.XMin() + span*float64(i)/points
		xs = append(xs, x)
		ys = append(ys, cal.CDF(x))
	}
	return Result{
		ID:     "fig04",
		Title:  "Cumulative distribution of round-trip time (no attack)",
		XLabel: "RTT (CPU cycles)",
		YLabel: "F(x)",
		Series: []textplot.Series{{Label: fmt.Sprintf("empirical CDF (%d trials)", trials), X: xs, Y: ys}},
		Notes: []string{
			fmt.Sprintf("x_min = %.0f cycles, x_max = %.0f cycles", cal.XMin(), cal.XMax()),
			fmt.Sprintf("spread = %.2f bit-times (paper: ~4.5); replay threshold = %.0f cycles",
				cal.SpreadBits(), cal.Threshold()),
			fmt.Sprintf("one 16-byte packet = %d cycles: any store-and-forward replay is caught",
				phy.FrameAirTime(16)),
		},
	}, nil
}

// quickDeploy shrinks the deployment for smoke tests and benchmarks.
func quickDeploy(c *scenario.Config) {
	c.Deploy.N = 300
	c.Deploy.Nb = 33
	c.Deploy.Na = 3
	c.Deploy.Field = geo.Square(550)
}

// calStats runs the shared RTT calibration and returns its full
// statistics: the threshold is a deployment constant, not per-run state,
// so it is measured once per figure and pinned into every scenario, and
// the moments ride along for detectors that calibrate on them (the
// Mahalanobis detector's mean/σ). With a cache, the measurement is
// memoized by (trials, seed) — and single-flighted, so the concurrently
// regenerating figures that all calibrate with the same parameters pay
// for one calibration between them. The calibration is
// detector-independent, so its key carries an empty detector field.
func calStats(o Options) (core.RTTStats, error) {
	calTrials := 2000
	if o.Quick {
		calTrials = 500
	}
	seed := o.Seed ^ 0xC0FFEE
	compute := func() (core.RTTStats, error) {
		cal, err := core.CalibrateRTTWorkers(calTrials, phy.DefaultJitter(), seed, o.Workers)
		if err != nil {
			return core.RTTStats{}, err
		}
		return cal.Stats(), nil
	}
	if o.Cache == nil {
		return compute()
	}
	key := cache.Fingerprint(cache.CodeSalt, EncodeKey("rtt-calibration", "", struct {
		Trials int
		Seed   uint64
	}{calTrials, seed}))
	data, _, err := o.Cache.GetOrCompute(key, func() ([]byte, error) {
		st, err := compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	})
	if err != nil {
		return core.RTTStats{}, err
	}
	var st core.RTTStats
	if err := json.Unmarshal(data, &st); err != nil || st.Threshold == 0 {
		return compute() // schema drift without a salt bump: recompute
	}
	return st, nil
}

// calThreshold is the local-replay threshold from the shared calibration.
func calThreshold(o Options) (float64, error) {
	st, err := calStats(o)
	if err != nil {
		return 0, err
	}
	return st.Threshold, nil
}

// sweepKey builds the canonical cache key for a scenario sweep from its
// fully resolved per-point configs. Seeds are zeroed in the encoding —
// the harness's job fingerprint addresses them — so the key captures
// exactly the configuration half of a trial's identity. The sweep's
// detector identity is lifted into the key's dedicated detector field;
// a sweep must be detector-uniform (the bake-off runs one sweep per
// detector), so mixed-detector protos panic.
func sweepKey(kind string, trials int, protos []scenario.Config) []byte {
	detector := core.DetectorSpec{}.Canonical()
	for i := range protos {
		if d := protos[i].Detector.Canonical(); i == 0 {
			detector = d
		} else if d != detector {
			panic(fmt.Sprintf("experiment: sweepKey(%s): mixed detectors %q and %q in one sweep",
				kind, detector, d))
		}
		protos[i].Seed = 0
		protos[i].Deploy.Seed = 0
	}
	return EncodeKey(kind, detector, struct {
		Trials  int
		Configs []scenario.Config
	}{trials, protos})
}

// simSweep runs the paper-scale scenario across a P grid on the trial
// harness and returns the per-P averaged results plus the sweep's
// aggregate instrumentation. The sweep label keys the seed streams, so
// two figures with the same root seed never replay each other's trials
// — and conversely, figures that deliberately share a label (fig12 and
// fig13 both consume the "detect" sweep) address the same cached
// trials.
func simSweep(o Options, label string, ps []float64, trials int, mutate func(*scenario.Config)) ([]*scenario.Result, *RunMetrics, error) {
	threshold, err := calThreshold(o)
	if err != nil {
		return nil, nil, err
	}
	// cfgAt resolves the full per-point configuration; Run stamps only
	// the job seeds on top. Keeping key construction and execution on
	// one config builder means anything mutate can express is in the
	// cache key.
	cfgAt := func(point int) scenario.Config {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(ps[point])
		cfg.RTTThreshold = threshold
		if o.Quick {
			quickDeploy(&cfg)
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	protos := make([]scenario.Config, len(ps))
	for p := range ps {
		protos[p] = cfgAt(p)
	}
	timing := harness.NewTiming()
	sims, err := harness.SweepReduce(context.Background(), harness.Spec[*scenario.Result]{
		Label:    label,
		Points:   harness.FloatLabels("P", ps),
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.progress(),
		Timing:   timing,
		Cache:    o.Cache,
		Key:      sweepKey("simSweep", trials, protos),
		Codec:    harness.JSONCodec[*scenario.Result](),
		Run: func(_ context.Context, job harness.Job) (*scenario.Result, error) {
			cfg := cfgAt(job.Point)
			cfg.Seed = job.Seed
			// The deployment is shared across sweep points (common
			// random numbers): only the trial index seeds placement, so
			// curves differ in the swept parameter, not the topology.
			cfg.Deploy.Seed = job.TrialSeed
			return scenario.Run(cfg)
		},
	}, meanScenario)
	if err != nil {
		return nil, nil, err
	}
	rm := &RunMetrics{Timing: *timing}
	// Point-then-trial order: the reducer already merged each point's
	// trials in trial order, so folding points in grid order keeps the
	// aggregate identical for any worker count.
	for _, s := range sims {
		rm.Scenario.Merge(s.Metrics)
	}
	return sims, rm, nil
}

// meanScenario averages the metric fields the figures consume; the
// population is constant across trials of a point. Instrumentation
// counters are summed (not averaged): Metrics.Runs records how many runs
// fed them.
func meanScenario(_ int, runs []*scenario.Result) *scenario.Result {
	agg := &scenario.Result{}
	for _, r := range runs {
		agg.DetectionRate += r.DetectionRate
		agg.AffectedPerMalicious += r.AffectedPerMalicious
		agg.AvgNc += r.AvgNc
		agg.FalsePositiveRate += r.FalsePositiveRate
		agg.BenignAlerts += r.BenignAlerts
		agg.TrueAlerts += r.TrueAlerts
		agg.Population = r.Population
		agg.Detector = r.Detector
		agg.Metrics.Merge(r.Metrics)
	}
	f := float64(len(runs))
	agg.DetectionRate /= f
	agg.AffectedPerMalicious /= f
	agg.AvgNc /= f
	agg.FalsePositiveRate /= f
	agg.BenignAlerts /= len(runs)
	agg.TrueAlerts /= len(runs)
	return agg
}

func sweepGrid(o Options) ([]float64, int) {
	if o.Quick {
		return []float64{0.1, 0.3}, 1
	}
	return []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}, 3
}

// detectionSweep is the simulation sweep behind Figures 12 and 13: the
// paper-scale scenario across the P grid with colluding reports off.
// Both figures read different columns of the same runs, so they share
// one sweep label ("detect"): their trial fingerprints coincide, and
// with a cache the two concurrently regenerating figures single-flight
// to one set of simulations instead of two.
func detectionSweep(o Options) ([]float64, []*scenario.Result, *RunMetrics, error) {
	ps, trials := sweepGrid(o)
	sims, rm, err := simSweep(o, "detect", ps, trials, func(c *scenario.Config) { c.Collude = false })
	return ps, sims, rm, err
}

// Fig12 regenerates Figure 12: revocation detection rate vs P, simulation
// against theory, at (τ=10, τ′=2), m=8, p_d=0.9, one analog wormhole.
func Fig12(o Options) (Result, error) {
	ps, sims, rm, err := detectionSweep(o)
	if err != nil {
		return Result{}, err
	}
	var simY, thY []float64
	for i, p := range ps {
		simY = append(simY, sims[i].DetectionRate)
		thY = append(thY, analysis.RevocationRate(p, 8, 2, int(sims[i].AvgNc), sims[i].Population))
	}
	res := Result{
		ID:     "fig12",
		Title:  "Detection rate vs P: simulation against theory (tau=10, tau'=2)",
		XLabel: "P",
		YLabel: "detection rate",
		Series: []textplot.Series{
			{Label: "simulation", X: ps, Y: simY},
			{Label: "theory", X: ps, Y: thY},
		},
		Metrics: rm,
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"measured Nc = %.0f; simulation tracks theory (paper: 'the result conforms to the theoretical analysis')",
		sims[len(sims)-1].AvgNc))
	return res, nil
}

// Fig13 regenerates Figure 13: N′ (affected non-beacon nodes per
// malicious beacon) vs P, simulation against theory.
func Fig13(o Options) (Result, error) {
	ps, sims, rm, err := detectionSweep(o)
	if err != nil {
		return Result{}, err
	}
	var simY, thY []float64
	for i, p := range ps {
		simY = append(simY, sims[i].AffectedPerMalicious)
		// The theoretical N' uses the *sensor* fraction of the measured
		// neighbor count as its requester pool, like the formula's
		// (N - N_b)/N factor does.
		thY = append(thY, analysis.AffectedNodes(p, 8, 2, int(sims[i].AvgNc), sims[i].Population))
	}
	return Result{
		ID:     "fig13",
		Title:  "Affected non-beacon nodes N' vs P: simulation against theory",
		XLabel: "P",
		YLabel: "N' per malicious beacon",
		Series: []textplot.Series{
			{Label: "simulation", X: ps, Y: simY},
			{Label: "theory", X: ps, Y: thY},
		},
		Metrics: rm,
		Notes: []string{
			"observable but small sim-theory gap, as in the paper ('in general close to each other')",
		},
	}, nil
}

// Fig14 regenerates Figure 14: ROC curves — detection rate vs
// false-positive rate for N_a ∈ {5, 10} and τ′ ∈ {2, 3, 4}, each point a
// different report cap τ, with colluding malicious reporters and P chosen
// to maximize N′.
func Fig14(o Options) (Result, error) {
	taus := []int{1, 2, 4, 6, 8, 10}
	nas := []int{5, 10}
	tauPs := []int{2, 3, 4}
	trials := 2
	if o.Quick {
		taus = []int{2, 10}
		nas = []int{5}
		tauPs = []int{2}
		trials = 1
	}
	threshold, err := calThreshold(o)
	if err != nil {
		return Result{}, err
	}

	// The sweep's points are the full (N_a, τ′, τ) grid; each curve of
	// the figure groups the τ points of one (N_a, τ′) pair.
	type combo struct{ na, tauP, tau int }
	var combos []combo
	var labels []string
	for _, na := range nas {
		for _, tauP := range tauPs {
			for _, tau := range taus {
				combos = append(combos, combo{na, tauP, tau})
				labels = append(labels, fmt.Sprintf("Na=%d,tau'=%d,tau=%d", na, tauP, tau))
			}
		}
	}

	// rocSample's fields are exported so the sweep's results serialize
	// through the cache codec.
	type rocSample struct {
		Det, FPR float64
		Metrics  scenario.Metrics
	}
	cfgAt := func(point int) scenario.Config {
		c := combos[point]
		cfg := scenario.Paper()
		cfg.Deploy.Na = c.na
		cfg.Revoke = revoke.Config{ReportCap: c.tau, AlertThreshold: c.tauP}
		cfg.RTTThreshold = threshold
		if o.Quick {
			quickDeploy(&cfg)
			cfg.Deploy.Na = min(c.na, 5)
		}
		// Attacker picks P maximizing N' for these thresholds
		// (paper's assumption).
		pop := analysis.Population{N: cfg.Deploy.N, Nb: cfg.Deploy.Nb, Na: cfg.Deploy.Na}
		_, pStar := analysis.MaxAffected(cfg.Deploy.DetectingIDs, c.tauP, 68, pop)
		cfg.Strategy = analysis.StrategyForP(pStar)
		return cfg
	}
	protos := make([]scenario.Config, len(combos))
	for p := range combos {
		protos[p] = cfgAt(p)
	}
	timing := harness.NewTiming()
	points, err := harness.SweepReduce(context.Background(), harness.Spec[rocSample]{
		Label:    "fig14",
		Points:   labels,
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.progress(),
		Timing:   timing,
		Cache:    o.Cache,
		Key:      sweepKey("fig14-roc", trials, protos),
		Codec:    harness.JSONCodec[rocSample](),
		Run: func(_ context.Context, job harness.Job) (rocSample, error) {
			cfg := cfgAt(job.Point)
			cfg.Seed = job.Seed
			cfg.Deploy.Seed = job.TrialSeed
			r, err := scenario.Run(cfg)
			if err != nil {
				return rocSample{}, err
			}
			return rocSample{Det: r.DetectionRate, FPR: r.FalsePositiveRate, Metrics: r.Metrics}, nil
		},
	}, func(_ int, trials []rocSample) rocSample {
		var mean rocSample
		for _, s := range trials {
			mean.Det += s.Det
			mean.FPR += s.FPR
			mean.Metrics.Merge(s.Metrics)
		}
		mean.Det /= float64(len(trials))
		mean.FPR /= float64(len(trials))
		return mean
	})
	if err != nil {
		return Result{}, err
	}
	rm := &RunMetrics{Timing: *timing}
	for _, pt := range points {
		rm.Scenario.Merge(pt.Metrics)
	}

	res := Result{
		ID:      "fig14",
		Title:   "ROC: detection rate vs false-positive rate (colluding reporters)",
		XLabel:  "false positive rate",
		YLabel:  "detection rate",
		Metrics: rm,
	}
	for i := 0; i < len(combos); i += len(taus) {
		var xs, ys []float64
		for j := i; j < i+len(taus); j++ {
			xs = append(xs, points[j].FPR)
			ys = append(ys, points[j].Det)
		}
		res.Series = append(res.Series, textplot.Series{
			Label:   fmt.Sprintf("Na=%d,tau'=%d", combos[i].na, combos[i].tauP),
			X:       xs,
			Y:       ys,
			Scatter: true,
		})
	}
	res.Notes = append(res.Notes,
		"most malicious beacons revoked at ~5% FPR when Na=5; FPR grows with Na (colluders force ~Na(tau+1)/(tau'+1) revocations)")
	return res, nil
}

// ExtraLocalization is extension experiment E1: the motivating claim that
// malicious beacons corrupt localization, and that detection+revocation
// restores it. Compares mean localization error with the full defense
// against a defenseless baseline (no filters, no revocation).
func ExtraLocalization(o Options) (Result, error) {
	ps := []float64{0.1, 0.3, 0.5}
	trials := 2
	if o.Quick {
		ps = []float64{0.3}
		trials = 1
	}
	// One job runs the defended and undefended variants on identical
	// seeds — a paired design, so the comparison is not smeared by
	// topology variance between the two curves. Exported fields: the
	// samples serialize through the cache codec.
	type locSample struct{ Defended, Undefended float64 }
	cfgAt := func(point int, defended bool) scenario.Config {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(ps[point])
		cfg.Collude = false
		cfg.CalibrationTrials = 500
		if o.Quick {
			quickDeploy(&cfg)
		}
		if !defended {
			cfg.DisableRTTFilter = true
			cfg.DisableWormholeFilter = true
			// An absurd alert threshold disables revocation.
			cfg.Revoke.AlertThreshold = 1 << 20
		}
		return cfg
	}
	protos := make([]scenario.Config, 0, 2*len(ps))
	for p := range ps {
		protos = append(protos, cfgAt(p, true), cfgAt(p, false))
	}
	points, err := harness.SweepReduce(context.Background(), harness.Spec[locSample]{
		Label:    "extra-localization",
		Points:   harness.FloatLabels("P", ps),
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.progress(),
		Cache:    o.Cache,
		Key:      sweepKey("extra-localization", trials, protos),
		Codec:    harness.JSONCodec[locSample](),
		Run: func(_ context.Context, job harness.Job) (locSample, error) {
			runVariant := func(defended bool) (float64, error) {
				cfg := cfgAt(job.Point, defended)
				cfg.Seed = job.Seed
				cfg.Deploy.Seed = job.TrialSeed
				r, err := scenario.Run(cfg)
				if err != nil {
					return 0, err
				}
				return r.LocErrMean, nil
			}
			var s locSample
			var err error
			if s.Defended, err = runVariant(true); err != nil {
				return s, err
			}
			if s.Undefended, err = runVariant(false); err != nil {
				return s, err
			}
			return s, nil
		},
	}, func(_ int, trials []locSample) locSample {
		var mean locSample
		for _, s := range trials {
			mean.Defended += s.Defended
			mean.Undefended += s.Undefended
		}
		mean.Defended /= float64(len(trials))
		mean.Undefended /= float64(len(trials))
		return mean
	})
	if err != nil {
		return Result{}, err
	}

	defended := make([]float64, len(ps))
	undefended := make([]float64, len(ps))
	for i, s := range points {
		defended[i], undefended[i] = s.Defended, s.Undefended
	}
	res := Result{
		ID:     "extra-localization",
		Title:  "E1: mean localization error with vs without the defense",
		XLabel: "P",
		YLabel: "mean error (ft)",
		Series: []textplot.Series{
			{Label: "defended (detect+revoke)", X: ps, Y: defended},
			{Label: "undefended", X: ps, Y: undefended},
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"at P=%.1f: defended %.1f ft vs undefended %.1f ft (ranging error bound 10 ft)",
		ps[len(ps)-1], defended[len(defended)-1], undefended[len(undefended)-1]))
	return res, nil
}

// ExtraAblation is extension experiment E2: what each replay filter buys.
// Three configurations under a wormhole plus local replay attackers:
// full defense, RTT filter off, wormhole detector off — reporting false
// alerts between benign beacons.
func ExtraAblation(o Options) (Result, error) {
	trials := 3
	if o.Quick {
		trials = 1
	}
	type variant struct {
		label string
		mut   func(*scenario.Config)
	}
	variants := []variant{
		{"full defense", func(c *scenario.Config) {}},
		{"RTT filter off", func(c *scenario.Config) { c.DisableRTTFilter = true }},
		{"wormhole detector off", func(c *scenario.Config) { c.DisableWormholeFilter = true }},
	}
	cfgFor := func(vi int) scenario.Config {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(0) // benign-behaving compromised nodes
		cfg.Collude = false
		cfg.CalibrationTrials = 500
		if o.Quick {
			quickDeploy(&cfg)
			cfg.Wormholes = []scenario.WormholeSpec{{
				A: geo.Point{X: 100, Y: 100}, B: geo.Point{X: 450, Y: 400}, Latency: 2,
			}}
		}
		// Blanket replay attackers to stress the RTT filter.
		w := cfg.Deploy.Field.Width()
		for x := w / 6; x < w; x += w / 3 {
			for y := w / 6; y < w; y += w / 3 {
				cfg.ReplayAttackers = append(cfg.ReplayAttackers, geo.Point{X: x, Y: y})
			}
		}
		variants[vi].mut(&cfg)
		return cfg
	}
	protos := make([]scenario.Config, len(variants))
	for vi := range variants {
		protos[vi] = cfgFor(vi)
	}
	// Each job runs all three variants on identical seeds (paired), so
	// the ablation differences come from the disabled filter alone.
	rows, err := harness.Sweep(context.Background(), harness.Spec[[3]float64]{
		Label:    "extra-ablation",
		Points:   []string{"benign-alerts"},
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.progress(),
		Cache:    o.Cache,
		Key:      sweepKey("extra-ablation", trials, protos),
		Codec:    harness.JSONCodec[[3]float64](),
		Run: func(_ context.Context, job harness.Job) ([3]float64, error) {
			var alerts [3]float64
			for vi := range variants {
				cfg := cfgFor(vi)
				cfg.Seed = job.Seed
				cfg.Deploy.Seed = job.TrialSeed
				r, err := scenario.Run(cfg)
				if err != nil {
					return alerts, err
				}
				alerts[vi] = float64(r.BenignAlerts)
			}
			return alerts, nil
		},
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:     "extra-ablation",
		Title:  "E2: false alerts between benign beacons, by disabled filter",
		XLabel: "variant (0=full, 1=no RTT, 2=no wormhole detector)",
		YLabel: "false alerts",
	}
	for vi, v := range variants {
		var acc float64
		for _, alerts := range rows[0] {
			acc += alerts[vi]
		}
		res.Series = append(res.Series, textplot.Series{
			Label:   v.label,
			X:       []float64{float64(vi)},
			Y:       []float64{acc / float64(trials)},
			Scatter: true,
		})
	}
	res.Notes = append(res.Notes,
		"the full defense keeps benign-vs-benign alerts near the (1-p_d) wormhole floor; each disabled filter opens a false-positive channel")
	return res, nil
}
