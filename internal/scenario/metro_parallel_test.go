package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestRunMetroWorkerInvariance is the tentpole property test: every
// identity-pinned field of MetroResult (the MetroIdentity projection) is
// byte-identical across worker counts, on both sides of the scheduler's
// queue selection. The serial run's PendingHint is the node count, so the
// "heap" population sits below the wheel threshold (256 pending events)
// and the "wheel" population above it. CI runs this under -race, so it
// doubles as the data-race check on the sharded kernel.
func TestRunMetroWorkerInvariance(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, tc := range []struct {
		name string
		n    int64
	}{
		{"heap", 200},
		{"wheel", metroN(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MetroPaper(tc.n, 11)
			serial, err := RunMetro(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Probes == 0 {
				t.Fatalf("n=%d: serial run sent no probes", tc.n)
			}
			want, _ := json.Marshal(serial.Identity())
			for _, w := range workerCounts {
				par, err := RunMetroParallel(context.Background(), cfg, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got, _ := json.Marshal(par.Identity())
				if string(got) != string(want) {
					t.Errorf("workers=%d diverged from serial in identity-pinned fields:\nserial:   %s\nparallel: %s",
						w, want, got)
				}
				// The per-shard instrumentation still has to account for
				// the same workload: shard-local high-water marks can
				// only shrink, never exceed the serial standing
				// population, and the depth histogram must record every
				// schedule exactly once across shards.
				if par.Sim.MaxPending > serial.Sim.MaxPending {
					t.Errorf("workers=%d: MaxPending %d exceeds serial %d",
						w, par.Sim.MaxPending, serial.Sim.MaxPending)
				}
				if par.QueueDepth.Count != serial.QueueDepth.Count {
					t.Errorf("workers=%d: depth observations %d, serial %d",
						w, par.QueueDepth.Count, serial.QueueDepth.Count)
				}
			}
		})
	}
}

// TestRunMetroWorkersConfigKnob pins that cfg.Workers and the
// RunMetroParallel argument are the same knob: setting one or the other
// produces identical results (the argument overrides the field).
func TestRunMetroWorkersConfigKnob(t *testing.T) {
	cfg := MetroPaper(2_000, 5)
	cfg.Workers = 3
	viaField, err := RunMetro(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 0
	viaArg, err := RunMetroParallel(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := json.Marshal(viaField)
	ab, _ := json.Marshal(viaArg)
	if string(fb) != string(ab) {
		t.Fatalf("cfg.Workers=3 and RunMetroParallel(..., 3) diverged:\n%s\n%s", fb, ab)
	}
}

// TestRunMetroCanceledContext pins the cancellation contract at the
// stream boundary: a context canceled before the run starts aborts both
// kernels during ingest with the context's error and no result.
func TestRunMetroCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := MetroPaper(2_000, 1)
		cfg.Workers = workers
		res, err := RunMetro(ctx, cfg)
		if res != nil {
			t.Errorf("workers=%d: canceled run returned a result", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestRunMetroCancelMidRun cancels a large run from another goroutine
// shortly after it starts, so cancellation lands mid-stream or mid-drain
// rather than at the entry check. The population is sized to take far
// longer than the cancel delay on any machine.
func TestRunMetroCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large-population cancellation test; run without -short")
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		cfg := MetroPaper(300_000, 1)
		cfg.Workers = workers
		start := time.Now()
		res, err := RunMetro(ctx, cfg)
		wall := time.Since(start)
		cancel()
		if res != nil {
			t.Errorf("workers=%d: canceled run returned a result", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A full 300k run takes seconds; a prompt abort takes
		// milliseconds. The generous bound only catches "cancellation
		// ignored, ran to completion".
		if wall > 10*time.Second {
			t.Errorf("workers=%d: canceled run still took %v", workers, wall)
		}
	}
}

// BenchmarkRunMetroParallel measures the sharded kernel's scaling curve.
// Under -short (the CI bench-smoke leg) it runs a 2k-node population
// once per worker count — a compilation-and-liveness check; the real
// curve comes from the full run at 100k nodes and from
// results/BENCH_*_parallel.json at 1M.
func BenchmarkRunMetroParallel(b *testing.B) {
	nodes := int64(100_000)
	if testing.Short() {
		nodes = 2_000
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := MetroPaper(nodes, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunMetroParallel(context.Background(), cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
