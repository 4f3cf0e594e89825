package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// paperGolden is the committed projection of Run(Paper()) at Seed 7.
var paperGolden = filepath.Join("..", "..", "results", "golden", "scenario_paper_seed7.json")

// goldenProjection marshals res with the scheduler-shape counters
// removed: metrics.sim, metrics.queue_depth and metrics.phases[].events
// count how the radio fan-out is packed into events, not what the
// simulation computes. Everything else — revocations, detection and
// false-positive rates, localization error, and the radio, link, probe,
// filter and revocation counters — stays. Numbers keep their exact
// text, and keys come out sorted, so the bytes are stable.
func goldenProjection(t *testing.T, res *Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	m, ok := doc["Metrics"].(map[string]any)
	if !ok {
		t.Fatalf("result JSON has no Metrics object: %s", raw)
	}
	delete(m, "sim")
	delete(m, "queue_depth")
	phases, _ := m["phases"].([]any)
	for _, p := range phases {
		delete(p.(map[string]any), "events")
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestPaperResultGolden pins a full-scale §4 run — N = 1000, the paper
// wormhole, colluding reporters — byte for byte against the committed
// golden. The quick figure golden only covers the N = 300 series; this
// one holds the paper-size network, where every frame fans out to ~55
// receivers.
func TestPaperResultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper run")
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	cfg := Paper()
	cfg.Seed = 7
	got := goldenProjection(t, run(t, cfg))
	if !bytes.Equal(want, got) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		lo := max(i-120, 0)
		t.Fatalf("paper run diverges from %s at byte %d:\n--- want\n…%s…\n--- got\n…%s…",
			paperGolden, i, want[lo:min(i+120, len(want))], got[lo:min(i+120, len(got))])
	}
}
