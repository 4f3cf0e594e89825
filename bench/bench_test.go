package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"

	"beaconsec/internal/ident"
)

// testSize shrinks every workload to a fraction of a second.
var testSize = size{
	paperShrink:    true,
	paperPs:        []float64{0.1, 0.3},
	paperTrials:    1,
	calTrials:      200,
	metroNodes:     20_000,
	revnetRequests: 200,
	setupReps:      1,
}

// runShrunk runs one workload at testSize with the least work the
// workload allows (its minimum unit count).
func runShrunk(t *testing.T, workload string, seed uint64, traced bool) *result {
	t.Helper()
	e := newEnv(options{workload: workload, seed: seed, seconds: 1, trace: traced}, testSize, t.TempDir())
	res, err := lookup(workload)(e)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if traced {
		if err := e.tr.finish(res, e.dir); err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
	}
	res.fillLayers()
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", workload, res.failed, res.attempted)
	}
	return res
}

// seedCount names, per workload, a count the seed must move, which shows
// the seed reaches the generated inputs. metro-1m's sim.events is
// 2 × nodes × rounds for every seed (each probe chain fires a probe and a
// reply or timeout), but which timeouts get cancelled depends on the seed.
// revnet-uplink's counts are the same for every seed by design: the seed
// orders targets (TestRevnetPlanFollowsSeed).
var seedCount = map[string]string{
	"paper-sweep": "sim.events",
	"metro-1m":    "sim.scheduled",
}

// TestCountsRepeatExactly runs each workload twice with one seed: every
// count must repeat exactly, and a second seed must change the workload's
// seedCount.
func TestCountsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runShrunk(t, w.name, 7, false)
			b := runShrunk(t, w.name, 7, false)
			if len(a.counts) == 0 {
				t.Fatal("no counts recorded")
			}
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("counts differ between two runs of seed 7:\n%v\n%v", a.counts, b.counts)
			}
			name, ok := seedCount[w.name]
			if !ok {
				return
			}
			if c := runShrunk(t, w.name, 8, false); c.counts[name] == a.counts[name] {
				t.Errorf("seeds 7 and 8 both give %s = %d", name, a.counts[name])
			}
		})
	}
}

// TestJobWallTakesInTheCache checks that every cold job is timed through
// the cache's store: a job's wall then covers its scenario.Run, so the
// median job is no shorter than the median Run.
func TestJobWallTakesInTheCache(t *testing.T) {
	res := runShrunk(t, "paper-sweep", 7, false)
	job, run := res.layer["harness.job_p50_s"], res.opP50Ms/1e3
	if job == 0 || job < run {
		t.Errorf("harness.job_p50_s = %v s, median scenario.Run %v s", job, run)
	}
}

func TestRevnetPlanFollowsSeed(t *testing.T) {
	a := plan(400, rand.New(rand.NewPCG(7, 0)))
	b := plan(400, rand.New(rand.NewPCG(7, 0)))
	c := plan(400, rand.New(rand.NewPCG(8, 0)))
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("a plan must repeat for one seed and change with the seed")
	}
	seen := map[ident.NodeID]bool{}
	for j, r := range a {
		if r.query != (j%4 == 3) {
			t.Fatalf("request %d: query=%v breaks the 3 alerts : 1 query mix", j, r.query)
		}
		if r.target < revnetTargetBase {
			t.Fatalf("request %d names reporter-range node %d", j, r.target)
		}
		if !r.query {
			if seen[r.target] {
				t.Fatalf("request %d alerts %d a second time", j, r.target)
			}
			seen[r.target] = true
		} else if !seen[r.target] {
			t.Fatalf("request %d queries %d before alerting it", j, r.target)
		}
	}
}

// TestTracedRunReportsEveryLayer checks a traced run's final line names
// every per-layer metric, and that the per-layer self times sum to the
// profile total.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	res := runShrunk(t, "metro-1m", 7, true)
	var buf bytes.Buffer
	if err := printResult(&buf, true, res); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct bool                       `json:"correct"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(perLayer) {
		t.Errorf("correct=%v with %d metrics, want %d", out.Correct, len(out.Metrics), len(perLayer))
	}
	var sum float64
	for _, l := range layers {
		sum += res.layer[l+".self_s"]
	}
	if total := res.layer["profile.cpu_s"]; math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		t.Errorf("self times sum to %v s, profile total %v s", sum, total)
	}
	if res.layer["sim.events"] == 0 || res.layer["metro.probes"] == 0 {
		t.Errorf("metro counts missing: %v", res.counts)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the benchmark's
// metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, ours)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark %v", b.PerLayer, perLayer)
	}
}
