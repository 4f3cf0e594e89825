// Command beaconsim runs one end-to-end secure-location-discovery
// simulation and prints its metrics.
//
// Usage:
//
//	beaconsim [-n 1000] [-nb 110] [-na 10] [-p 0.2] [-tau 10] [-tauprime 2]
//	          [-pd 0.9] [-m 8] [-wormhole] [-collude] [-seed 1]
//	          [-cache] [-cache-dir DIR]
//	beaconsim -metro [-nodes 100000] [-metro-workers K] [-seed 1]
//
// -cache memoizes the run's result content-addressed by the full
// configuration (including -seed): repeating an identical invocation
// replays the stored result instead of simulating, and any flag change
// recomputes. The cache directory is shared with 'figures -cache'.
//
// -metro switches to the memory-bounded metro-scale scenario: -nodes
// sets the population (the deployment is streamed, per-node results are
// never retained) and -metro-workers runs the space-partitioned
// parallel kernel with K sharded schedulers. Every identity-pinned field
// is byte-identical across worker counts; the report ends with throughput
// and peak-memory lines (machine-dependent, never part of the identity
// contract). A metro run is interruptible: SIGINT/SIGTERM cancel it
// mid-stream or mid-run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"beaconsec/internal/analysis"
	"beaconsec/internal/cache"
	"beaconsec/internal/core"
	"beaconsec/internal/experiment"
	"beaconsec/internal/metrics"
	"beaconsec/internal/revoke"
	"beaconsec/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "beaconsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("beaconsim", flag.ContinueOnError)
	n := fs.Int("n", 1000, "total sensor nodes")
	nb := fs.Int("nb", 110, "beacon nodes")
	na := fs.Int("na", 10, "compromised beacon nodes")
	p := fs.Float64("p", 0.2, "attacker strategy P (undetected-attack probability)")
	tau := fs.Int("tau", 10, "report-counter cap τ")
	tauPrime := fs.Int("tauprime", 2, "alert threshold τ'")
	pd := fs.Float64("pd", 0.9, "wormhole detector rate p_d")
	m := fs.Int("m", 8, "detecting IDs per beacon node")
	wormhole := fs.Bool("wormhole", true, "install the paper's wormhole tunnel")
	collude := fs.Bool("collude", true, "malicious beacons flood coordinated alerts")
	detector := fs.String("detector", "", "detection pipeline, e.g. paper or mahalanobis{threshold=2.5} (default: the paper pipeline)")
	seed := fs.Uint64("seed", 1, "random seed")
	useCache := fs.Bool("cache", false, "memoize the run's result on disk (see -cache-dir)")
	cacheDir := fs.String("cache-dir", filepath.Join("results", "cache"), "result cache directory")
	metro := fs.Bool("metro", false, "run the memory-bounded metro-scale scenario instead")
	nodes := fs.Int64("nodes", 100_000, "metro population (with -metro)")
	metroWorkers := fs.Int("metro-workers", 1, "parallel shard count for -metro (identity-pinned results are byte-identical at any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *metro {
		return runMetro(out, *nodes, *metroWorkers, *seed)
	}

	cfg := scenario.Paper()
	cfg.Deploy.N = *n
	cfg.Deploy.Nb = *nb
	cfg.Deploy.Na = *na
	cfg.Deploy.DetectingIDs = *m
	cfg.Deploy.Seed = *seed
	cfg.Strategy = analysis.StrategyForP(*p)
	cfg.Revoke = revoke.Config{ReportCap: *tau, AlertThreshold: *tauPrime}
	cfg.WormholeRate = *pd
	cfg.Collude = *collude
	cfg.Seed = *seed
	if !*wormhole {
		cfg.Wormholes = nil
	}
	if *detector != "" {
		spec, err := core.ParseDetectorSpec(*detector)
		if err != nil {
			return err
		}
		if !core.DetectorRegistered(spec.Name) {
			return fmt.Errorf("unknown detector %q (registered: %s)",
				spec.Name, strings.Join(core.DetectorNames(), ", "))
		}
		cfg.Detector = spec
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	res, err := runMaybeCached(cfg, *useCache, *cacheDir, out)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "population           N=%d Nb=%d Na=%d (m=%d, range=%.0fft)\n",
		*n, *nb, *na, *m, cfg.Deploy.Range)
	fmt.Fprintf(out, "attacker strategy    P=%.2f  thresholds tau=%d tau'=%d  p_d=%.2f\n",
		*p, *tau, *tauPrime, *pd)
	fmt.Fprintf(out, "RTT replay threshold %.0f cycles\n", res.RTTThreshold)
	fmt.Fprintf(out, "detector             %s\n", res.Detector)
	fmt.Fprintln(out)
	fmt.Fprintf(out, "revoked malicious    %d / %d  (detection rate %.2f)\n",
		res.RevokedMalicious, *na, res.DetectionRate)
	fmt.Fprintf(out, "revoked benign       %d / %d  (false positive rate %.3f)\n",
		res.RevokedBenign, *nb-*na, res.FalsePositiveRate)
	fmt.Fprintf(out, "alerts               %d true, %d benign-vs-benign (wormhole-induced)\n",
		res.TrueAlerts, res.BenignAlerts)
	fmt.Fprintf(out, "affected sensors     %.2f per surviving malicious beacon (avg Nc %.1f)\n",
		res.AffectedPerMalicious, res.AvgNc)
	fmt.Fprintf(out, "localization         %d sensors localized, mean error %.1f ft (max %.1f)\n",
		res.Localized, res.LocErrMean, res.LocErrMax)
	fmt.Fprintf(out, "radio                %d transmissions, %d deliveries, %d collisions, %d request timeouts\n",
		res.Medium.Transmissions, res.Medium.Deliveries, res.Medium.Collisions, res.Timeouts)
	return nil
}

// runMetro executes one metro-scale run and prints its accounting. No
// caching: a metro run is a single pass, and its one performance knob,
// the worker count, deliberately never changes identity-pinned results.
// The trailing queue/events/memory lines carry per-shard instrumentation
// and machine-dependent throughput — the CI identity legs strip them
// before diffing.
func runMetro(out io.Writer, nodes int64, workers int, seed uint64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := scenario.MetroPaper(nodes, seed)
	cfg.Workers = workers
	start := time.Now()
	res, err := scenario.RunMetro(ctx, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	env := metrics.CaptureEnv()
	fmt.Fprintf(out, "population           %d nodes, %d beacons (%d malicious), field %.0fx%.0f ft\n",
		res.Nodes, res.Beacons, res.Malicious,
		cfg.Deploy.Field.Width(), cfg.Deploy.Field.Height())
	fmt.Fprintf(out, "queue                %d worker(s), max pending %d, p99 depth %.0f\n",
		workers, res.Sim.MaxPending, res.QueueDepth.Quantile(0.99))
	fmt.Fprintf(out, "probes               %d sent: %d replied, %d timed out\n",
		res.Probes, res.Replies, res.Timeouts)
	fmt.Fprintf(out, "consistency check    %d malicious replies flagged (rate %.3f), %d benign flagged\n",
		res.FlaggedMalicious, res.FlagRate, res.FlaggedBenign)
	fmt.Fprintf(out, "events               %d fired in %.2fs wall clock (%.2fM events/s, GOMAXPROCS=%d of %d CPUs)\n",
		res.Sim.Events, wall.Seconds(), float64(res.Sim.Events)/wall.Seconds()/1e6,
		env.GOMAXPROCS, env.NumCPU)
	fmt.Fprintf(out, "memory               ~%.0f MB peak footprint (runtime.MemStats.Sys estimate; see results/BENCH_*_metro.json for getrusage RSS)\n",
		float64(ms.Sys)/1e6)
	return nil
}

// runMaybeCached executes the simulation, memoized on disk when asked.
// Both the hit and miss path decode the stored JSON, so cached and fresh
// invocations print identical numbers by construction. The cached form
// keeps only the exported result (the report's inputs); the node-level
// accessors are not retained, which this command never uses.
func runMaybeCached(cfg scenario.Config, useCache bool, dir string, out io.Writer) (*scenario.Result, error) {
	if !useCache {
		return scenario.Run(cfg)
	}
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	// The full config — seeds included — addresses the entry: a single
	// run's identity is every flag that shaped it.
	key := cache.Fingerprint(cache.CodeSalt,
		experiment.EncodeKey("beaconsim", cfg.Detector.Canonical(), cfg))
	data, hit, err := c.GetOrCompute(key, func() ([]byte, error) {
		res, rerr := scenario.Run(cfg)
		if rerr != nil {
			return nil, rerr
		}
		return json.Marshal(res)
	})
	if err != nil {
		return nil, err
	}
	res := new(scenario.Result)
	if uerr := json.Unmarshal(data, res); uerr != nil {
		// A stale-schema entry (result shape changed without a salt
		// bump): recompute and overwrite rather than fail.
		fresh, rerr := scenario.Run(cfg)
		if rerr != nil {
			return nil, rerr
		}
		if data, rerr = json.Marshal(fresh); rerr != nil {
			return nil, rerr
		}
		c.Put(key, data)
		res = new(scenario.Result)
		if uerr = json.Unmarshal(data, res); uerr != nil {
			return nil, fmt.Errorf("cache: result does not round-trip: %w", uerr)
		}
		hit = false
	}
	if hit {
		fmt.Fprintf(out, "cache                hit (%s)\n", dir)
	} else {
		fmt.Fprintf(out, "cache                miss, stored (%s)\n", dir)
	}
	return res, nil
}
