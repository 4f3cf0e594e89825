package phy

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// receptionLogGolden is the committed reference log. It was recorded
// before the per-link radio state (link tables with precomputed
// propagation, emitter tables, the lazily computed ranging distance)
// went in, so it pins that work against the arithmetic of the eager
// per-reception path: the brute-force oracle shares the lazy path and
// cannot catch drift in it. Never regenerate it to make a change pass.
const receptionLogGolden = "testdata/reception_log.txt"

// receptionLogText runs one seeded medium per ranging model and renders
// every handler observation, one line each: model, radio index, the
// frame's first byte, the measured distance's IEEE-754 bits, the
// receiver-side register timestamp and the arrival end.
func receptionLogText() []byte {
	var out bytes.Buffer
	models := []struct {
		name string
		r    Ranging
	}{
		{"uniform", BoundedUniform{MaxError: 10}},
		{"gaussian", TruncatedGaussian{Sigma: 4, MaxError: 10}},
		{"perfect", Perfect{}},
	}
	for _, model := range models {
		rnd := rand.New(rand.NewSource(15))
		sched := sim.New()
		m := NewMedium(sched, rng.New(77), Config{Range: 150, Ranging: model.r})
		var radios []*Radio
		add := func(p geo.Point) {
			i := len(radios)
			r := m.NewRadio(p)
			r.SetHandler(func(rec Reception) {
				fmt.Fprintf(&out, "%s %d %d %016x %d %d\n", model.name, i, rec.Frame.Data[0],
					math.Float64bits(rec.MeasuredDist()), rec.FirstByteSPDR(), rec.End())
			})
			radios = append(radios, r)
		}
		for i := 0; i < 40; i++ {
			add(geo.Point{X: 400 * rnd.Float64(), Y: 400 * rnd.Float64()})
		}
		// Fixed injection points, each used repeatedly (wormhole exits
		// and replay attackers sit still), one of them off the field.
		origins := []*Emitter{
			m.NewEmitter(geo.Point{X: 100, Y: 100}),
			m.NewEmitter(geo.Point{X: 300, Y: 250}),
			m.NewEmitter(geo.Point{X: -60, Y: 200}),
		}
		// Biases: none, enlarged, and shrunk far enough that d + bias is
		// negative (Perfect passes it through, the others clamp to 0).
		biases := []float64{0, 0, 25, -7.5, -400}
		for a := 0; a < 36; a++ {
			at := sim.Time(rnd.Intn(3_000_000))
			f := Frame{Data: make([]byte, 8+rnd.Intn(16)), RangeBias: biases[rnd.Intn(len(biases))]}
			f.Data[0] = byte(a)
			from, origin := rnd.Intn(len(radios)), origins[rnd.Intn(len(origins))]
			inject := rnd.Intn(3) == 0
			sched.At(at, func() {
				if inject {
					m.Inject(origin, f)
				} else {
					m.Transmit(radios[from], f)
				}
			})
		}
		// Mid-run registrations next to radios and injection points that
		// have already launched, then launches that reach them.
		for k, p := range []geo.Point{{X: 110, Y: 90}, {X: 290, Y: 260}, {X: 200, Y: 200}} {
			sched.At(sim.Time(1_000_000*(k+1)), func() { add(p) })
		}
		for k := 0; k < 12; k++ {
			at := sim.Time(3_100_000 + 200_000*k)
			f := Frame{Data: make([]byte, 10), RangeBias: biases[k%len(biases)]}
			f.Data[0] = byte(100 + k)
			from, origin := rnd.Intn(len(radios)+3), origins[k%len(origins)]
			sched.At(at, func() {
				if k%3 == 0 {
					m.Inject(origin, f)
				} else {
					m.Transmit(radios[from], f)
				}
			})
		}
		if err := sched.Run(); err != nil {
			panic(err)
		}
		fmt.Fprintf(&out, "%s stats %+v\n", model.name, m.Stats())
	}
	return out.Bytes()
}

// TestReceptionLogGolden compares every handler observation of the
// seeded mediums above, byte for byte, with the committed log.
func TestReceptionLogGolden(t *testing.T) {
	want, err := os.ReadFile(receptionLogGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := receptionLogText()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("reception log line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("reception log has %d lines, golden %d", len(gl), len(wl))
}
