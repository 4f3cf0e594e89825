package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	beaconmetrics "beaconsec/internal/metrics"
)

// def is one metric's name and unit, as BENCHMARK.json lists it.
type def struct{ Name, Unit string }

// endToEnd are the metrics every untraced run prints. Each workload maps
// them onto its own work (README.md has the table):
//
//   - work_per_s: work the user asked for, completed per host second at
//     full load width — scenario.Run jobs per second of the cold sweep,
//     node probes per second of the sharded metro run, requests per
//     second over loopback. Each numerator is fixed by the workload's
//     configuration, so a change that does the same work with fewer
//     internal steps reads as faster;
//   - op_p50_ms: median wall time of one operation — one scenario.Run,
//     one Workers = 1 metro run, one round's mean request round trip.
var endToEnd = []def{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// does not exercise reads 0. Counts come from the run's first, untraced
// unit of work and repeat exactly for a seed; *.self_s come from the CPU
// profile of the traced phase.
var perLayer = func() []def {
	d := []def{
		{"harness.job_p50_s", "s"},
		{"harness.idle_frac", "ratio"},
		{"cache.stores", "count"},
		{"cache.bytes_written", "B"},
		{"cache.hits", "count"},
		{"cache.bytes_read", "B"},
		{"cache.warm_replay_s", "s"},
		{"sim.events", "count"},
		{"sim.scheduled", "count"},
		{"sim.cancelled", "count"},
		{"sim.max_pending", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.ns_per_event", "ns"},
		{"phy.transmissions", "count"},
		{"phy.deliveries", "count"},
		{"phy.collisions", "count"},
		{"phy.ns_per_tx", "ns"},
		{"mac.sent", "count"},
		{"mac.backoffs", "count"},
		{"node.probes", "count"},
		{"node.timeouts", "count"},
		{"core.verdicts", "count"},
		{"revoke.handled", "count"},
		{"revoke.accepted", "count"},
		{"revoke.revocations", "count"},
		{"metro.probes", "count"},
		{"metro.max_pending", "count"},
		{"metro.scaling_eff", "ratio"},
		{"revnet.frames_in", "count"},
		{"revnet.bytes_in", "B"},
		{"revnet.bytes_out", "B"},
		{"revnet.conns_accepted", "count"},
		{"revnet.alert_p50_us", "us"},
		{"revnet.query_p50_us", "us"},
		{"revnet.rtt_p99_us", "us"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.alloc_bytes", "B"},
		{"profile.cpu_s", "s"},
		{"trace_overhead_frac", "ratio"},
		{"failed_frac", "ratio"},
	}
	for _, l := range layers {
		d = append(d, def{l + ".self_s", "s"})
	}
	return d
}()

// size is how much work one unit of each workload does. fullSize is the
// benchmark; tests shrink it.
type size struct {
	// paperShrink swaps scenario.Paper()'s deployment (N=1000, Nb=110,
	// Na=10 on 1000×1000 ft) for the figures' quick-mode one (300, 33, 3
	// on 550×550 ft).
	paperShrink bool
	paperPs     []float64
	paperTrials int
	calTrials   int
	metroNodes  int64
	// revnetRequests is each connection's requests per round.
	revnetRequests int
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median. Enough repetitions to span most of a second, so the
	// median does not hang on one short stretch of a shared machine.
	setupReps int
}

var fullSize = size{
	paperPs:        []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5},
	paperTrials:    3,
	calTrials:      2000,
	metroNodes:     1_000_000,
	revnetRequests: 8000,
	setupReps:      501,
}

// env is one run's settings and accumulating result.
type env struct {
	start time.Time // when the run began; its budget counts from here
	opts  options
	size  size
	dir   string // where the run writes its files
	nproc int
	tr    *tracer // nil for an untraced run
	res   *result
}

// newEnv sets a run up at the machine's width: harness workers, metro
// shards and revnet connections all equal the CPUs the process may use.
func newEnv(o options, sz size, dir string) *env {
	e := &env{start: time.Now(), opts: o, size: sz, dir: dir, nproc: runtime.GOMAXPROCS(0), res: newResult()}
	if o.trace {
		e.tr = newTracer(fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	}
	return e
}

// measure runs unit repeatedly within the run's budget, which counts
// from the start of the run, set-up included. Unit i = 0, 1, … is
// numbered across the whole run. It always runs at least min units, and
// starts another only while the longest unit so far still fits in the
// budget. A traced run spends the first half of its budget untraced
// (the reference for trace_overhead_frac) and the rest under the CPU
// profiler, with tr set. The first unit's runtime/metrics deltas are the
// runtime layer's counts.
func (e *env) measure(min int, unit func(i int, tr *tracer) error) error {
	start := e.start
	i := 0
	phase := func(budget time.Duration, tr *tracer) error {
		var longest time.Duration
		for n := 0; n < min || time.Since(start)+longest <= budget; n++ {
			// Every unit starts from a collected heap, so one unit's
			// garbage does not bill the next.
			runtime.GC()
			var before runtimeCounters
			if i == 0 {
				before = readRuntime()
			}
			t := time.Now()
			if err := unit(i, tr); err != nil {
				return err
			}
			longest = max(longest, time.Since(t))
			if i == 0 {
				after := readRuntime()
				e.res.layer["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
				e.res.layer["runtime.alloc_bytes"] = after.allocBytes - before.allocBytes
			}
			i++
		}
		return nil
	}
	if e.tr == nil {
		return phase(e.opts.seconds, nil)
	}
	if err := phase(e.opts.seconds/2, nil); err != nil {
		return err
	}
	if err := e.tr.startProfile(); err != nil {
		return err
	}
	defer e.tr.stopProfile()
	return phase(e.opts.seconds, e.tr)
}

type runtimeCounters struct{ gcCPU, allocBytes float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), allocBytes: float64(s[1].Value.Uint64())}
}

// named is an end-to-end metric under the name the workload's users know
// it by (sweep_s, metro_events_per_s, revnet_rtt_p90_us, …), printed on
// the report lines before the result.
type named struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// result is what one run measured.
type result struct {
	attempted, failed int

	setup     []float64 // seconds, one per set-up repetition
	workPerS  float64
	opP50Ms   float64
	peakRSSMB float64

	// untracedRate and tracedRate are the workload's work per second in
	// the two phases of a traced run; tracedEvents and tracedTx are the
	// simulated events and radio transmissions of the traced phase.
	untracedRate, tracedRate float64
	tracedEvents, tracedTx   float64

	named []named
	// layer holds per-layer values; counts are the exact ones.
	layer  map[string]float64
	counts map[string]uint64
}

func newResult() *result {
	return &result{layer: map[string]float64{}, counts: map[string]uint64{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "bench: operation failed:", err)
	}
}

// ops counts attempted operations of which done completed; err says why
// the rest did not.
func (r *result) ops(attempted, done int, err error) {
	r.attempted += attempted
	if done < attempted {
		r.failed += attempted - done
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed: %v\n", attempted-done, attempted, err)
	}
}

// check counts one output check as an operation. A failed check is
// counted, not fatal, so one run reports every check it failed.
func (r *result) check(ok bool, what string) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("output check failed: %s", what))
}

// count records an exact per-unit count, both as a per-layer metric and
// for the determinism comparison.
func (r *result) count(name string, v uint64) {
	r.counts[name] = v
	r.layer[name] = float64(v)
}

func (r *result) name(name string, v float64, unit, note string) {
	r.named = append(r.named, named{name, v, unit, note})
}

func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":     median(r.setup),
		"peak_rss_mb": r.peakRSSMB,
		"work_per_s":  r.workPerS,
		"op_p50_ms":   r.opP50Ms,
	}
}

// fillLayers completes the per-layer table: the derived ratios, and 0 for
// every metric of a layer the workload did not exercise.
func (r *result) fillLayers() {
	if r.attempted > 0 {
		r.layer["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	if r.tracedRate > 0 {
		r.layer["trace_overhead_frac"] = r.untracedRate/r.tracedRate - 1
	}
	if r.tracedEvents > 0 {
		r.layer["sim.ns_per_event"] = r.layer["sim.self_s"] * 1e9 / r.tracedEvents
	}
	if r.tracedTx > 0 {
		r.layer["phy.ns_per_tx"] = r.layer["phy.self_s"] * 1e9 / r.tracedTx
	}
	for _, d := range perLayer {
		if _, ok := r.layer[d.Name]; !ok {
			r.layer[d.Name] = 0
		}
	}
}

// runEnv is the environment and load shape every run prints on its env:
// line, so no result is ambiguous about how many cores it had or what
// code it measured.
type runEnv struct {
	beaconmetrics.Env
	Commit         string `json:"commit"`
	SourceSHA256   string `json:"source_sha256"`
	Workload       string `json:"workload"`
	Seed           uint64 `json:"seed"`
	Seconds        int    `json:"seconds"`
	Trace          bool   `json:"trace"`
	NProc          int    `json:"nproc"`
	HarnessWorkers int    `json:"harness_workers"`
	MetroShards    int    `json:"metro_shards"`
	RevnetConns    int    `json:"revnet_conns"`
}

func newRunEnv(o options, e *env) runEnv {
	return runEnv{
		Env:            beaconmetrics.CaptureEnv(),
		Commit:         commit(),
		SourceSHA256:   sourceDigest(),
		Workload:       o.workload,
		Seed:           o.seed,
		Seconds:        int(o.seconds / time.Second),
		Trace:          o.trace,
		NProc:          e.nproc,
		HarnessWorkers: e.nproc,
		MetroShards:    e.nproc,
		RevnetConns:    e.nproc,
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one; a source tree outside version control has none, and
// sourceDigest identifies the code instead.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest is a SHA-256 over go.mod and every file under internal/,
// path and content, in lexical order: the measured program's identity.
func sourceDigest() string {
	h := sha256.New()
	hashFile := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	}
	err := hashFile("go.mod")
	if err == nil {
		err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return hashFile(path)
		})
	}
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scratchDir names a per-process directory for a run's temporary files.
func (e *env) scratchDir(name string) string {
	return filepath.Join(e.dir, "tmp", fmt.Sprintf("%s-%d-%s", e.opts.workload, os.Getpid(), name))
}
