package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"beaconsec/internal/metrics"
	"beaconsec/internal/scenario"
	"beaconsec/internal/textplot"
)

// metroSizes are the population points the metro runner sweeps. The full
// set tops out at 50k nodes — large enough that the standing event
// population is tens of thousands, small enough for a figure run; the
// 100k–1M regime lives in the benchmarks
// (BenchmarkSchedulerWheelFireMillion, BenchmarkDeployMetro*,
// BenchmarkRunMetroParallel) and results/BENCH_*_metro.json /
// BENCH_*_parallel.json.
func metroSizes(o Options) []int64 {
	if o.Quick {
		return []int64{2_000, 5_000}
	}
	return []int64{5_000, 20_000, 50_000}
}

// metroWorkers is the shard count of the parallel identity leg: the
// caller's -metro-workers if set, else 4 — deliberately more shards than
// a small CI box has cores, so the sharded kernel is exercised (and its
// identity contract enforced) even on one CPU.
func metroWorkers(o Options) int {
	if o.MetroWorkers > 0 {
		return o.MetroWorkers
	}
	return 4
}

// ExtraMetro regenerates the metro-scale extension experiment: for each
// population it runs the streamed probe scenario on the serial kernel
// and on the space-partitioned parallel kernel, errors if the parallel
// run diverges in any identity-pinned field (the tentpole contract,
// enforced on every figure regeneration, not just in tests), and reports
// the deterministic outcome curves.
// Wall-clock throughput and the execution environment are recorded in
// the notes only — they vary by machine, so they must never enter the
// series a golden file might pin.
func ExtraMetro(o Options) (Result, error) {
	ctx := context.Background()
	sizes := metroSizes(o)
	workers := metroWorkers(o)
	res := Result{
		ID:     "extra-metro",
		Title:  "E6: metro scale — streamed scenarios at 2k-50k nodes",
		XLabel: "nodes",
		YLabel: "rate / normalized count",
	}
	xs := make([]float64, len(sizes))
	flagRate := make([]float64, len(sizes))
	timeoutRate := make([]float64, len(sizes))
	pendingPerNode := make([]float64, len(sizes))
	depthP99 := make([]float64, len(sizes))
	start := time.Now()
	for i, n := range sizes {
		cfg := scenario.MetroPaper(n, o.Seed)
		serialStart := time.Now()
		serial, err := scenario.RunMetro(ctx, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("metro %d nodes: %w", n, err)
		}
		serialWall := time.Since(serialStart)

		parStart := time.Now()
		par, err := scenario.RunMetroParallel(ctx, cfg, workers)
		if err != nil {
			return Result{}, fmt.Errorf("metro %d nodes (parallel x%d): %w", n, workers, err)
		}
		parWall := time.Since(parStart)
		pb, _ := json.Marshal(par.Identity())
		sb, _ := json.Marshal(serial.Identity())
		if string(pb) != string(sb) {
			return Result{}, fmt.Errorf(
				"metro %d nodes: parallel x%d diverged from serial in identity-pinned fields\nserial:   %s\nparallel: %s",
				n, workers, sb, pb)
		}

		xs[i] = float64(n)
		flagRate[i] = serial.FlagRate
		timeoutRate[i] = float64(serial.Timeouts) / float64(serial.Probes)
		pendingPerNode[i] = float64(serial.Sim.MaxPending) / float64(n)
		depthP99[i] = serial.QueueDepth.Quantile(0.99) / float64(n)

		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d nodes: %d events, max pending %d; wall-clock %.0fms serial (machine-dependent); parallel x%d %.0fms (%.2fx vs serial), identity-pinned fields byte-identical",
			n, serial.Sim.Events, serial.Sim.MaxPending,
			float64(serialWall.Milliseconds()),
			workers, float64(parWall.Milliseconds()),
			serialWall.Seconds()/parWall.Seconds()))

		if o.Progress != nil {
			o.Progress(i+1, len(sizes), time.Since(start))
		}
	}
	res.Series = []textplot.Series{
		{Label: "malicious flag rate", X: xs, Y: flagRate},
		{Label: "timeout rate", X: xs, Y: timeoutRate},
		{Label: "max pending / nodes", X: xs, Y: pendingPerNode},
		{Label: "p99 queue depth / nodes", X: xs, Y: depthP99},
	}
	env := metrics.CaptureEnv()
	res.Notes = append(res.Notes,
		fmt.Sprintf("parallel kernel (x%d shards) identity-pinned fields byte-identical at every size (checked this run)", workers),
		"memory-bounded: deployment streamed, per-node results never retained",
		fmt.Sprintf("env: %s %s/%s, GOMAXPROCS=%d of %d CPUs (scaling numbers are meaningless without this)",
			env.GoVersion, env.GOOS, env.GOARCH, env.GOMAXPROCS, env.NumCPU))
	return res, nil
}
