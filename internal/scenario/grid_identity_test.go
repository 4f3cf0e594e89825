package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"beaconsec/internal/geo"
)

// TestGridVsBruteForceByteIdentical pins the central promise of the
// radio medium's receiver resolution: swapping its O(N) receiver scan
// for the link tables of radios (Transmit) and emitters (Inject)
// changes no output byte of a full scenario run. The
// config deliberately exercises every delivery path — CSMA contention,
// a wormhole tunnel (Inject from both exits), a local replay attacker,
// collusion traffic — so a divergence anywhere in receiver order or rng
// draw order would surface.
func TestGridVsBruteForceByteIdentical(t *testing.T) {
	cfg := smallConfig(0.3, 21)
	cfg.Wormholes = []WormholeSpec{{
		A: geo.Point{X: 100, Y: 100},
		B: geo.Point{X: 450, Y: 450},
	}}
	cfg.ReplayAttackers = []geo.Point{{X: 275, Y: 275}}
	cfg.Collude = true

	marshal := func(brute bool) []byte {
		c := cfg
		c.bruteForceMedium = brute
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	grid := marshal(false)
	brute := marshal(true)
	if !bytes.Equal(grid, brute) {
		// Locate the first divergence for the failure message.
		i := 0
		for i < len(grid) && i < len(brute) && grid[i] == brute[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		hiG, hiB := i+60, i+60
		if hiG > len(grid) {
			hiG = len(grid)
		}
		if hiB > len(brute) {
			hiB = len(brute)
		}
		t.Fatalf("grid and brute-force runs diverge at byte %d:\n  grid:  …%s…\n  brute: …%s…",
			i, grid[lo:hiG], brute[lo:hiB])
	}
}
