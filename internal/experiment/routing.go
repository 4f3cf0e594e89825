package experiment

import (
	"context"
	"fmt"

	"beaconsec/internal/analysis"
	"beaconsec/internal/geo"
	"beaconsec/internal/georoute"
	"beaconsec/internal/harness"
	"beaconsec/internal/node"
	"beaconsec/internal/rng"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// ExtraRouting is extension experiment E5: the paper's opening motivation
// measured end to end. Geographic routing (GPSR-style greedy forwarding)
// runs on the positions sensors *believe*; a malicious-beacon attack
// poisons those positions, and the detect-and-revoke defense restores
// them. The metric is end-to-end delivery rate over random node pairs.
func ExtraRouting(o Options) (Result, error) {
	ps := []float64{0.2, 0.5}
	trials := 2
	if o.Quick {
		ps = []float64{0.5}
		trials = 1
	}

	// One job routes the defended and undefended variants on identical
	// seeds and source/destination pairs (paired comparison). Exported
	// fields: the samples serialize through the cache codec.
	type deliverySample struct{ Defended, Undefended float64 }
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
			cfg.Revoke.AlertThreshold = 1 << 20
		}
		return cfg
	}
	protos := make([]scenario.Config, 0, 2*len(ps))
	for p := range ps {
		protos = append(protos, cfgAt(p, true), cfgAt(p, false))
	}
	points, err := harness.SweepReduce(context.Background(), harness.Spec[deliverySample]{
		Label:    "extra-routing",
		Points:   harness.FloatLabels("P", ps),
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.progress(),
		Cache:    o.Cache,
		Key:      sweepKey("extra-routing", trials, protos),
		Codec:    harness.JSONCodec[deliverySample](),
		Run: func(_ context.Context, job harness.Job) (deliverySample, error) {
			runVariant := func(defended bool) (float64, error) {
				cfg := cfgAt(job.Point, defended)
				cfg.Seed = job.Seed
				cfg.Deploy.Seed = job.TrialSeed
				res, err := scenario.Run(cfg)
				if err != nil {
					return 0, err
				}
				return routeOnEstimates(res, cfg, job.TrialSeed), nil
			}
			var s deliverySample
			var err error
			if s.Defended, err = runVariant(true); err != nil {
				return s, err
			}
			if s.Undefended, err = runVariant(false); err != nil {
				return s, err
			}
			return s, nil
		},
	}, func(_ int, trials []deliverySample) deliverySample {
		var mean deliverySample
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

	defY := make([]float64, len(ps))
	undefY := make([]float64, len(ps))
	for i, s := range points {
		defY[i], undefY[i] = s.Defended, s.Undefended
	}
	res := Result{
		ID:     "extra-routing",
		Title:  "E5: geographic-routing delivery rate on believed positions",
		XLabel: "P",
		YLabel: "delivery rate",
		Series: []textplot.Series{
			{Label: "defended (detect+revoke)", X: ps, Y: defY},
			{Label: "undefended", X: ps, Y: undefY},
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"at P=%.1f: delivery %.2f defended vs %.2f undefended — corrupted positions break greedy forwarding",
		ps[len(ps)-1], defY[len(defY)-1], undefY[len(undefY)-1]))
	return res, nil
}

// routeOnEstimates builds the routing substrate from a finished
// simulation: true positions from the deployment, believed positions from
// each sensor's localization outcome. Sensors that failed to localize do
// not participate — a node without a position cannot make or appear in
// geographic forwarding decisions (GPSR's requirement).
func routeOnEstimates(res *scenario.Result, cfg scenario.Config, seed uint64) float64 {
	var truth, believed []geo.Point
	add := func(tru, bel geo.Point) {
		truth = append(truth, tru)
		believed = append(believed, bel)
	}
	for _, s := range res.Sensors() {
		est, err := s.Localize()
		if err != nil {
			continue
		}
		add(s.TrueLoc(), est)
	}
	// Beacons participate in forwarding with their true (known)
	// positions.
	for _, b := range res.Beacons() {
		loc := beaconLoc(res, b)
		add(loc, loc)
	}
	net := georoute.New(truth, believed, cfg.Deploy.Range)
	src := rng.New(seed ^ 0x9047E)
	pairs := make([][2]int, 300)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(len(truth)), src.Intn(len(truth))}
	}
	rate, _ := net.DeliveryRate(pairs)
	return rate
}

func beaconLoc(res *scenario.Result, b *node.Beacon) geo.Point {
	return b.TrueLoc()
}
