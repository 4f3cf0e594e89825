package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"beaconsec/internal/scenario"
)

// runMetro runs the metro-scale detection kernel on a streamed
// 1M-node deployment: even units on the sharded kernel with one shard per
// CPU, odd units on the serial kernel (Workers = 1), the single-thread
// baseline. Every run's identity projection must equal the first's.
func runMetro(e *env) (*result, error) {
	res, ctx := e.res, context.Background()

	// Set-up is building and validating the configuration. One of those
	// takes well under a microsecond, so each sample times a batch of
	// setupBatch and divides; setup_s is the median sample.
	const setupBatch = 20000
	var cfg scenario.MetroConfig
	for k := 0; k < e.size.setupReps; k++ {
		t := time.Now()
		for j := 0; j < setupBatch; j++ {
			cfg = scenario.MetroPaper(e.size.metroNodes, e.opts.seed)
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
		}
		res.setup = append(res.setup, time.Since(t).Seconds()/setupBatch)
	}

	var (
		ref                                      []byte
		shardedPPS, shardedEPS, serialEPS, walls []float64
		untracedProbes, untracedS                float64
		tracedProbes, tracedS                    float64
	)
	// Every node runs every round, so the probes a run owes are fixed by
	// the configuration.
	probes := cfg.Deploy.NumNodes * int64(cfg.Rounds)
	err := e.measure(2, func(i int, tr *tracer) error {
		c, leg := cfg, "sharded"
		c.Workers = e.nproc
		if i%2 == 1 {
			c.Workers, leg = 1, "serial"
		}
		_, end := tr.start("scenario.RunMetro/"+leg, 0)
		t := time.Now()
		r, err := scenario.RunMetro(ctx, c)
		wall := time.Since(t).Seconds()
		end()
		res.op(err)
		if err != nil {
			return nil
		}
		id, err := json.Marshal(r.Identity())
		if err != nil {
			return err
		}
		if ref == nil {
			ref = id
		} else {
			res.check(bytes.Equal(id, ref), "metro identity equal across kernels and repeats")
		}
		res.check(r.Probes == probes, "every node runs every probe round")

		eps := float64(r.Sim.Events) / wall
		switch {
		case i == 0:
			res.count("metro.max_pending", uint64(r.Sim.MaxPending))
		case i == 1:
			res.count("sim.events", r.Sim.Events)
			res.count("sim.scheduled", r.Sim.Scheduled)
			res.count("sim.cancelled", r.Sim.Cancelled)
			res.count("sim.max_pending", uint64(r.Sim.MaxPending))
			res.count("metro.probes", uint64(r.Probes))
		}
		if tr != nil {
			res.tracedEvents += float64(r.Sim.Events)
			if leg == "sharded" {
				tracedProbes += float64(probes)
				tracedS += wall
			}
			return nil
		}
		if leg == "serial" {
			serialEPS = append(serialEPS, eps)
			walls = append(walls, wall)
			return nil
		}
		shardedPPS = append(shardedPPS, float64(probes)/wall)
		shardedEPS = append(shardedEPS, eps)
		untracedProbes += float64(probes)
		untracedS += wall
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.workPerS = median(shardedPPS)
	res.opP50Ms = median(walls) * 1e3
	res.untracedRate = untracedProbes / untracedS
	if tracedS > 0 {
		res.tracedRate = tracedProbes / tracedS
	}
	res.layer["sim.events_per_s"] = median(serialEPS)
	res.layer["metro.scaling_eff"] = median(shardedEPS) / (float64(e.nproc) * median(serialEPS))

	res.name("setup_s", median(res.setup), "s", fmt.Sprintf("median of %d batches of %d config builds + validations, per build", len(res.setup), setupBatch))
	res.name("metro_probes_per_s", res.workPerS, "1/s",
		fmt.Sprintf("work_per_s: median of %d runs at Workers=%d, %d probes each", len(shardedPPS), e.nproc, probes))
	res.name("metro_events_per_s", median(shardedEPS), "1/s",
		fmt.Sprintf("median of %d runs at Workers=%d", len(shardedEPS), e.nproc))
	res.name("metro_serial_events_per_s", median(serialEPS), "1/s",
		fmt.Sprintf("median of %d runs at Workers=1", len(serialEPS)))
	res.name("metro_serial_run_s", median(walls), "s", fmt.Sprintf("op_p50_ms: median of %d runs at Workers=1", len(walls)))
	return res, nil
}
