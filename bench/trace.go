package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; the revnet
// workload issues a span per request, millions in a long run. Spans past
// the bound are counted, not kept.
const maxSpans = 1 << 18

// span is one timed call the benchmark made into a public function of
// the program. Spans of one run share Run; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records a traced run: spans around the benchmark's calls into
// the program, kept in memory and written when the run ends, and a CPU
// profile of the traced phase. A nil *tracer records nothing.
type tracer struct {
	run  string
	t0   time.Time
	next atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int

	prof bytes.Buffer
	// cpuStart and cpuStop are the process's user + system CPU seconds
	// when the profile started and stopped.
	cpuStart, cpuStop float64
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// start opens a span named name under parent and returns its id and the
// function that closes it.
func (t *tracer) start(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.next.Add(1)
	begin := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		defer t.mu.Unlock()
		if len(t.spans) == maxSpans {
			t.dropped++
			return
		}
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: begin, End: end})
	}
}

func (t *tracer) startProfile() error {
	t.cpuStart = processCPU()
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) stopProfile() {
	pprof.StopCPUProfile()
	t.cpuStop = processCPU()
}

// processCPU is the user + system CPU time this process has used, in
// seconds, as the kernel counts it.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// profileCovers reports whether a profile holding profiled CPU seconds
// accounts for the used CPU seconds the kernel counted over the same
// span: within a tenth, give or take a few 10 ms samples. (On a 2-CPU
// host the two agree to 0.3 %.)
func profileCovers(profiled, used float64) bool {
	const slack = 0.05
	return profiled >= 0.9*used-slack && profiled <= 1.02*used+slack
}

// finish charges the traced phase's CPU profile to layers, stores each
// layer's self time in res, and writes the profile and the spans under
// dir/trace.
func (t *tracer) finish(res *result, dir string) error {
	samples, err := decodeCPUProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	byLayer, total := attribute(samples)
	for _, l := range layers {
		res.layer[l+".self_s"] = float64(byLayer[l]) / 1e9
	}
	profiled, used := float64(total)/1e9, t.cpuStop-t.cpuStart
	res.layer["profile.cpu_s"] = profiled
	res.check(profileCovers(profiled, used),
		fmt.Sprintf("CPU profile holds %.3f s of the %.3f s the kernel counted", profiled, used))

	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, t.run+".pprof"), t.prof.Bytes(), 0o644); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Run     string `json:"run"`
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.run, t.dropped, t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, t.run+".spans.json"), data, 0o644)
}
