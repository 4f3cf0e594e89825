package experiment

import (
	"context"
	"fmt"

	"beaconsec/internal/analysis"
	"beaconsec/internal/harness"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// ExtraDistributed is extension experiment E4, the paper's §6 future-work
// item made concrete: revocation without a base station. Beacons gossip
// alerts to their beacon neighbors and each runs the §3 counting
// algorithm on a local ledger. The experiment sweeps P and compares the
// centralized detection rate against the distributed variant's local
// revocation coverage, and reports the collusion cost (local framing) the
// base station's global report caps normally prevent.
func ExtraDistributed(o Options) (Result, error) {
	ps := []float64{0.1, 0.2, 0.4, 0.7, 1.0}
	trials := 2
	if o.Quick {
		ps = []float64{0.3, 1.0}
		trials = 1
	}

	// One job runs the centralized and distributed variants on
	// identical seeds (paired), so the curves differ in the revocation
	// architecture, not the topology draw. Exported fields: the samples
	// serialize through the cache codec.
	type distSample struct {
		Central, CentralFP, Local, LocalFrame float64
	}
	cfgAt := func(point int, distributed bool) scenario.Config {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(ps[point])
		cfg.Collude = true
		cfg.Distributed = distributed
		cfg.Wormholes = nil
		cfg.CalibrationTrials = 500
		if o.Quick {
			quickDeploy(&cfg)
		}
		return cfg
	}
	protos := make([]scenario.Config, 0, 2*len(ps))
	for p := range ps {
		protos = append(protos, cfgAt(p, false), cfgAt(p, true))
	}
	rows, err := harness.Sweep(context.Background(), harness.Spec[distSample]{
		Label:    "extra-distributed",
		Points:   harness.FloatLabels("P", ps),
		Trials:   trials,
		Seed:     o.Seed,
		Workers:  o.Workers,
		Progress: o.progress(),
		Cache:    o.Cache,
		Key:      sweepKey("extra-distributed", trials, protos),
		Codec:    harness.JSONCodec[distSample](),
		Run: func(_ context.Context, job harness.Job) (distSample, error) {
			var s distSample
			for _, distributed := range []bool{false, true} {
				cfg := cfgAt(job.Point, distributed)
				cfg.Seed = job.Seed
				cfg.Deploy.Seed = job.TrialSeed
				res, err := scenario.Run(cfg)
				if err != nil {
					return s, err
				}
				if distributed {
					s.Local = res.LocalCoverage
					s.LocalFrame = res.LocalFalseRevocations
				} else {
					s.Central = res.DetectionRate
					s.CentralFP = res.FalsePositiveRate
				}
			}
			return s, nil
		},
	})
	if err != nil {
		return Result{}, err
	}

	central := make([]float64, len(ps))
	local := make([]float64, len(ps))
	var centralFP, localFrame float64
	for i, row := range rows {
		for _, s := range row {
			central[i] += s.Central
			local[i] += s.Local
			centralFP += s.CentralFP
			localFrame += s.LocalFrame
		}
		central[i] /= float64(trials)
		local[i] /= float64(trials)
	}
	centralFP /= float64(len(ps) * trials)
	localFrame /= float64(len(ps) * trials)

	res := Result{
		ID:     "extra-distributed",
		Title:  "E4: centralized revocation vs base-station-free gossip (§6 future work)",
		XLabel: "P",
		YLabel: "detection (centralized) / neighbor coverage (distributed)",
		Series: []textplot.Series{
			{Label: "centralized detection rate", X: ps, Y: central},
			{Label: "distributed local coverage", X: ps, Y: local},
		},
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"collusion cost: centralized FPR %.3f (bounded by report caps) vs %.2f local false revocations per benign ledger",
		centralFP, localFrame))
	res.Notes = append(res.Notes,
		"without the global view, coverage is per-neighborhood and colluders frame locally — why the paper keeps the base station")
	return res, nil
}
