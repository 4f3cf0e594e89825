// Package experiment regenerates every data figure of the paper's
// evaluation (Figures 4–14) plus two extension experiments, as labelled
// series suitable for ASCII plotting, CSV export, and benchmark
// assertions. DESIGN.md's per-experiment index maps each runner to its
// figure; EXPERIMENTS.md records paper-vs-measured outcomes.
package experiment

import (
	"fmt"
	"time"

	"beaconsec/internal/analysis"
	"beaconsec/internal/cache"
	"beaconsec/internal/core"
	"beaconsec/internal/deploy"
	"beaconsec/internal/harness"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// Options tune experiment cost.
type Options struct {
	// Quick reduces trials and network size for smoke tests and
	// benchmarks; the shapes survive, the error bars grow.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the trial harness's worker pool for
	// simulation-backed runners; <= 0 means one worker per available
	// CPU. Results are identical for any value.
	Workers int
	// Progress, when non-nil, observes trial completion within
	// simulation-backed runners (done jobs, total jobs, elapsed time).
	// Invocations are serialized per runner.
	Progress func(done, total int, elapsed time.Duration)
	// Cache, when non-nil, memoizes simulation trial results across
	// runs and processes, content-addressed by canonical config
	// encoding plus derived seeds; identical concurrent trials (figures
	// sharing a sweep, like fig12/fig13) compute once. Figure results
	// are byte-identical with or without it.
	Cache *cache.Cache
	// Detectors selects the detector grid the bake-off runner
	// (extra-bakeoff) compares; empty selects every registered
	// detector with default parameters. The paper-figure runners ignore
	// it: they reproduce the paper and always run its pipeline.
	Detectors []core.DetectorSpec
	// MetroWorkers is the shard count of the metro runner's parallel
	// identity leg (extra-metro); 0 picks a default that exercises the
	// sharded kernel even on one CPU. Identity-pinned metro fields are
	// byte-identical at any value, so it is a performance knob, never a
	// result knob.
	MetroWorkers int
}

// progress adapts the caller's callback to the harness's Progress type.
func (o Options) progress() func(harness.Progress) {
	if o.Progress == nil {
		return nil
	}
	return func(p harness.Progress) { o.Progress(p.Done, p.Total, p.Elapsed) }
}

// RunMetrics aggregates the instrumentation of every simulation run a
// figure executed. The Scenario half is deterministic (merged in grid
// order, identical for any worker count); the Timing half is wall-clock
// and varies run to run, so determinism comparisons must zero it.
type RunMetrics struct {
	// Scenario sums the per-run deterministic counters (scheduler, radio,
	// link, probes, filters, revocation) over all runs.
	Scenario scenario.Metrics `json:"scenario"`
	// Timing is the sweep's wall-clock profile.
	Timing harness.Timing `json:"timing"`
}

// Result is one regenerated figure.
type Result struct {
	// ID is the figure identifier ("fig04" ... "fig14", "extra-*").
	ID string
	// Title summarizes what the paper's figure shows.
	Title  string
	XLabel string
	YLabel string
	Series []textplot.Series
	// Notes carry headline numbers (x_min/x_max, detection at the
	// operating point, ...) for EXPERIMENTS.md.
	Notes []string
	// Metrics is the aggregate instrumentation of the figure's simulation
	// runs; nil for closed-form figures, which run no simulation.
	Metrics *RunMetrics `json:"Metrics,omitempty"`
}

// Plot converts the result for rendering.
func (r Result) Plot() *textplot.Plot {
	return &textplot.Plot{
		Title:  fmt.Sprintf("%s — %s", r.ID, r.Title),
		XLabel: r.XLabel,
		YLabel: r.YLabel,
		Series: r.Series,
	}
}

// Runner is a figure regenerator. Run reports simulation failures as
// errors; closed-form runners never fail.
type Runner struct {
	ID  string
	Run func(Options) (Result, error)
}

// All lists every figure runner in paper order.
func All() []Runner {
	return []Runner{
		{"fig04", Fig4},
		{"fig05", Fig5},
		{"fig06a", Fig6a},
		{"fig06b", Fig6b},
		{"fig07", Fig7},
		{"fig08", Fig8},
		{"fig09", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"extra-localization", ExtraLocalization},
		{"extra-ablation", ExtraAblation},
		{"extra-bakeoff", ExtraBakeoff},
		{"extra-promotion", ExtraPromotion},
		{"extra-distributed", ExtraDistributed},
		{"extra-routing", ExtraRouting},
		{"extra-metro", ExtraMetro},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// paperPop is the reconstructed analysis population.
func paperPop() analysis.Population { return analysis.PaperPopulation() }

// pGrid returns an x-axis of P values in (0, 1].
func pGrid(steps int) []float64 {
	xs := make([]float64, 0, steps)
	for i := 1; i <= steps; i++ {
		xs = append(xs, float64(i)/float64(steps))
	}
	return xs
}

// Fig5 regenerates Figure 5: P_r = 1 - (1-P)^m for m ∈ {1, 2, 4, 8}.
func Fig5(o Options) (Result, error) {
	steps := 100
	if o.Quick {
		steps = 20
	}
	xs := pGrid(steps)
	res := Result{
		ID:     "fig05",
		Title:  "Detector catch rate P_r vs attacker exposure P",
		XLabel: "P",
		YLabel: "P_r",
	}
	for _, m := range []int{1, 2, 4, 8} {
		ys := make([]float64, len(xs))
		for i, p := range xs {
			ys[i] = analysis.DetectionRate(p, m)
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("m=%d", m), X: xs, Y: ys,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("P_r at P=0.2: m=1 %.2f, m=8 %.2f — attacker cannot raise P without raising detection",
			analysis.DetectionRate(0.2, 1), analysis.DetectionRate(0.2, 8)))
	return res, nil
}

// Fig6a regenerates Figure 6(a): revocation rate P_d vs P for
// τ′ ∈ {1,2,3,4} at m=8, N_c=100.
func Fig6a(o Options) (Result, error) {
	steps := 50
	if o.Quick {
		steps = 15
	}
	xs := pGrid(steps)
	res := Result{
		ID:     "fig06a",
		Title:  "Revocation rate P_d vs P (m=8, Nc=100)",
		XLabel: "P",
		YLabel: "P_d",
	}
	for _, tauP := range []int{1, 2, 3, 4} {
		ys := make([]float64, len(xs))
		for i, p := range xs {
			ys[i] = analysis.RevocationRate(p, 8, tauP, 100, paperPop())
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("tau'=%d", tauP), X: xs, Y: ys,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("P_d at P=0.2, tau'=2: %.2f; larger tau' needs more alerts and lowers P_d",
			analysis.RevocationRate(0.2, 8, 2, 100, paperPop())))
	return res, nil
}

// Fig6b regenerates Figure 6(b): P_d vs P for m ∈ {1,2,4,8,16} at τ′=4.
func Fig6b(o Options) (Result, error) {
	steps := 50
	if o.Quick {
		steps = 15
	}
	xs := pGrid(steps)
	res := Result{
		ID:     "fig06b",
		Title:  "Revocation rate P_d vs P (tau'=4, Nc=100)",
		XLabel: "P",
		YLabel: "P_d",
	}
	for _, m := range []int{1, 2, 4, 8, 16} {
		ys := make([]float64, len(xs))
		for i, p := range xs {
			ys[i] = analysis.RevocationRate(p, m, 4, 100, paperPop())
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("m=%d", m), X: xs, Y: ys,
		})
	}
	return res, nil
}

// Fig7 regenerates Figure 7: P_d vs N_c for P ∈ {0.1,...,0.4} at m=8,
// τ′=2.
func Fig7(o Options) (Result, error) {
	maxNc := 250
	step := 5
	if o.Quick {
		maxNc, step = 100, 10
	}
	res := Result{
		ID:     "fig07",
		Title:  "Revocation rate P_d vs requesting nodes Nc (m=8, tau'=2)",
		XLabel: "Nc",
		YLabel: "P_d",
	}
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4} {
		var xs, ys []float64
		for nc := step; nc <= maxNc; nc += step {
			xs = append(xs, float64(nc))
			ys = append(ys, analysis.RevocationRate(p, 8, 2, nc, paperPop()))
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("P=%.1f", p), X: xs, Y: ys,
		})
	}
	res.Notes = append(res.Notes,
		"more requesters mean more alert opportunities: P_d rises with Nc at every P")
	return res, nil
}

// Fig8 regenerates Figure 8: N′ vs P for τ′ ∈ {2,3,4} × m ∈ {8,4},
// N_c=100.
func Fig8(o Options) (Result, error) {
	steps := 50
	if o.Quick {
		steps = 15
	}
	xs := pGrid(steps)
	res := Result{
		ID:     "fig08",
		Title:  "Affected non-beacon nodes N' vs P (Nc=100)",
		XLabel: "P",
		YLabel: "N'",
	}
	for _, tauP := range []int{2, 3, 4} {
		for _, m := range []int{8, 4} {
			ys := make([]float64, len(xs))
			for i, p := range xs {
				ys[i] = analysis.AffectedNodes(p, m, tauP, 100, paperPop())
			}
			res.Series = append(res.Series, textplot.Series{
				Label: fmt.Sprintf("tau'=%d,m=%d", tauP, m), X: xs, Y: ys,
			})
		}
	}
	maxN, argP := analysis.MaxAffected(8, 2, 100, paperPop())
	res.Notes = append(res.Notes,
		fmt.Sprintf("attacker optimum at tau'=2,m=8: N' = %.2f at P = %.2f — single digits in practice", maxN, argP))
	return res, nil
}

// Fig9 regenerates Figure 9: max_P N′ vs N_c for m ∈ {2,4,8} × τ′ ∈
// {2,4}.
func Fig9(o Options) (Result, error) {
	maxNc := 250
	step := 5
	if o.Quick {
		maxNc, step = 100, 20
	}
	res := Result{
		ID:     "fig09",
		Title:  "Attacker-optimal N' vs Nc",
		XLabel: "Nc",
		YLabel: "max_P N'",
	}
	for _, m := range []int{8, 4, 2} {
		for _, tauP := range []int{2, 4} {
			var xs, ys []float64
			for nc := step; nc <= maxNc; nc += step {
				v, _ := analysis.MaxAffected(m, tauP, nc, paperPop())
				xs = append(xs, float64(nc))
				ys = append(ys, v)
			}
			res.Series = append(res.Series, textplot.Series{
				Label: fmt.Sprintf("m=%d,tau'=%d", m, tauP), X: xs, Y: ys,
			})
		}
	}
	res.Notes = append(res.Notes,
		"N' rises, peaks at an interior Nc, then falls as more requesters revoke the attacker faster")
	return res, nil
}

// Fig10 regenerates Figure 10: P_o vs τ for N_c ∈ {1,50,100,150,200}
// (τ′=2, m=8, P=0.2, N_w=10, p_d=0.9).
func Fig10(o Options) (Result, error) {
	maxTau := 15
	if o.Quick {
		maxTau = 10
	}
	res := Result{
		ID:     "fig10",
		Title:  "Report-counter overflow probability P_o vs tau (tau'=2, m=8, P=0.2)",
		XLabel: "tau",
		YLabel: "P_o",
	}
	for _, nc := range []int{1, 50, 100, 150, 200} {
		var xs, ys []float64
		for tau := 0; tau <= maxTau; tau++ {
			prm := analysis.ReportCounterParams{
				Pop: paperPop(), Nc: nc, Nw: 10, Pd: 0.9,
				M: 8, P: 0.2, TauPrime: 2, Tau: tau,
			}
			xs = append(xs, float64(tau))
			ys = append(ys, analysis.ReportCounterExceedProb(tau, prm))
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("Nc=%d", nc), X: xs, Y: ys,
		})
	}
	prm := analysis.ReportCounterParams{Pop: paperPop(), Nc: 100, Nw: 10, Pd: 0.9, M: 8, P: 0.2, TauPrime: 2, Tau: 10}
	res.Notes = append(res.Notes,
		fmt.Sprintf("P_o(tau=10, Nc=100) = %.2g — close to zero, so (tau=10, tau'=2) is a sound pair",
			analysis.ReportCounterExceedProb(10, prm)))
	return res, nil
}

// Fig11 regenerates Figure 11: the beacon deployment scatter.
func Fig11(o Options) (Result, error) {
	cfg := deploy.Paper()
	cfg.Seed = o.Seed
	d := deploy.New(cfg)
	res := Result{
		ID:     "fig11",
		Title:  "Beacon deployment in the sensing field (o benign, x malicious)",
		XLabel: "x (ft)",
		YLabel: "y (ft)",
	}
	var bx, by, mx, my []float64
	for _, i := range d.BenignBeacons() {
		bx = append(bx, d.Nodes[i].Loc.X)
		by = append(by, d.Nodes[i].Loc.Y)
	}
	for _, i := range d.MaliciousBeacons() {
		mx = append(mx, d.Nodes[i].Loc.X)
		my = append(my, d.Nodes[i].Loc.Y)
	}
	res.Series = []textplot.Series{
		{Label: "benign beacon", X: bx, Y: by, Scatter: true},
		{Label: "malicious beacon", X: mx, Y: my, Scatter: true},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d benign + %d malicious beacons in a %g x %g ft field; avg beacon neighbors %.1f",
			len(bx), len(mx), cfg.Field.Width(), cfg.Field.Height(), d.AvgBeaconNeighbors()))
	return res, nil
}
