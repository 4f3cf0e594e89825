// Command bench is beaconsec's repository benchmark. It runs one workload
// per process and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 they are the per-layer
// ones, taken from a CPU-profiled phase plus the counters the program
// already returns. README.md in this directory says why each workload
// exists and which layer should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload paper-sweep --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
	"time"
)

// outDir holds everything a run writes (cache directories, profiles,
// spans), relative to the repository root the benchmark runs
// from.
const outDir = ".bench_build"

// options is one invocation's command line.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// workloads maps each workload name to the function that runs it, in
// BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*env) (*result, error)
}{
	{"paper-sweep", runPaperSweep},
	{"metro-1m", runMetro},
	{"revnet-uplink", runRevnet},
}

// lookup returns the named workload's run function, or nil.
func lookup(name string) func(*env) (*result, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	drive := lookup(o.workload)
	if drive == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	e := newEnv(o, fullSize, outDir)
	res, err := drive(e)
	if err != nil {
		return err
	}
	res.peakRSSMB = peakRSSMB()
	if o.trace {
		if err := e.tr.finish(res, outDir); err != nil {
			return err
		}
	}
	res.fillLayers()
	for _, m := range res.named {
		fmt.Fprintf(stdout, "%s: %s = %.6g %s (%s)\n", o.workload, m.Name, m.Value, m.Unit, m.Note)
	}
	line, err := json.Marshal(newRunEnv(o, e))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env: %s\n", line)
	return printResult(stdout, o.trace, res)
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (paper-sweep, metro-1m, revnet-uplink)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced (per-layer) variant")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() != 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds %d must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}, nil
}

// printResult writes the result line: every end-to-end metric of
// BENCHMARK.json untraced, every per-layer metric traced.
func printResult(w io.Writer, traced bool, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	defs, values := endToEnd, res.endToEnd()
	if traced {
		defs, values = perLayer, res.layer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("workload did not produce metric %s", d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB is this process's resident-set high-water mark. Each run
// executes one workload, so it is that workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
