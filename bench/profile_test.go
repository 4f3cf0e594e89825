package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestAttributeInnermostInternalFrame pins the charging rule on a
// hand-built stack set: each sample goes to the innermost
// beaconsec/internal frame, standard-library frames above it count
// toward that caller, and stacks with no internal frame go to runtime.
func TestAttributeInnermostInternalFrame(t *testing.T) {
	samples := []sample{
		{cpuNS: 10, stack: []string{"crypto/sha256.block", "crypto/hmac.(*hmac).Write",
			"beaconsec/internal/crypto.(*Key).MAC", "beaconsec/internal/mac.(*Endpoint).Send", "runtime.goexit"}},
		{cpuNS: 20, stack: []string{"math.Hypot", "beaconsec/internal/geo.Point.Dist",
			"beaconsec/internal/phy.(*Medium).Transmit"}},
		{cpuNS: 30, stack: []string{"slices.pdqsortCmpFunc[go.shape.int]",
			"beaconsec/internal/harness.Sweep[go.shape.*beaconsec/internal/scenario.Result].func1"}},
		{cpuNS: 40, stack: []string{"runtime.mallocgc", "runtime.newobject",
			"beaconsec/internal/sim.(*Scheduler).At", "beaconsec/internal/node.(*Beacon).probe"}},
		{cpuNS: 50, stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{cpuNS: 60, stack: []string{"main.drive", "main.runRevnet.func1"}},
		{cpuNS: 70, stack: []string{"beaconsec/internal/textplot.Render"}},
		{cpuNS: 80, stack: nil},
	}
	byLayer, total := attribute(samples)
	want := map[string]int64{
		"crypto": 10, "geo": 20, "harness": 30, "sim": 40,
		"runtime": 50 + 60 + 80, "other": 70,
	}
	var sum int64
	for _, l := range layers {
		got, ok := byLayer[l]
		if !ok {
			t.Errorf("layer %s missing from the attribution", l)
		}
		if got != want[l] {
			t.Errorf("%s: charged %d ns, want %d", l, got, want[l])
		}
		sum += got
	}
	if total != 360 || sum != total {
		t.Errorf("total %d, layer sum %d, want both 360", total, sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"beaconsec/internal/revnet.(*Server).handle":    "revnet",
		"beaconsec/internal/sim.(*wheelQueue).pop":      "sim",
		"beaconsec/internal/scenario.runMetroParallel":  "scenario",
		"beaconsec/internal/georoute.Route":             "other",
		"beaconsec/internal/packet.EncodeTo":            "packet",
		"beaconsec.RunFigure":                           "",
		"net.(*conn).Read":                              "",
		"main.main":                                     "",
		"github.com/x/beaconsec/internal/sim.Something": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// TestDecodeHandBuiltProfile decodes a profile with one inlined location
// and both packed and unpacked repeated fields, and checks the stack comes
// out innermost first.
func TestDecodeHandBuiltProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Hypot", "beaconsec/internal/geo.Point.Dist", "beaconsec/internal/phy.(*Medium).Transmit"}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		prof.bytes(1, vt.b)
	}
	// Sample 1: packed fields. Sample 2: unpacked ones.
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 3, 30_000_000)
	prof.bytes(2, s1.b)
	var s2 pb
	s2.varint(1, 2)
	s2.varint(2, 1)
	s2.varint(2, 10_000_000)
	prof.bytes(2, s2.b)
	// Location 1 inlines Hypot into Dist (innermost first); location 2
	// is Transmit.
	line := func(fn uint64) []byte {
		var l pb
		l.varint(1, fn)
		l.varint(2, 42)
		return l.b
	}
	var loc1, loc2 pb
	loc1.varint(1, 1)
	loc1.bytes(4, line(1))
	loc1.bytes(4, line(2))
	loc2.varint(1, 2)
	loc2.bytes(4, line(3))
	prof.bytes(4, loc1.b)
	prof.bytes(4, loc2.b)
	for id, name := range []uint64{5, 6, 7} {
		var fn pb
		fn.varint(1, uint64(id+1))
		fn.varint(2, name)
		prof.bytes(5, fn.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	samples, err := decodeCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(samples))
	}
	want := "math.Hypot > beaconsec/internal/geo.Point.Dist > beaconsec/internal/phy.(*Medium).Transmit"
	if got := strings.Join(samples[0].stack, " > "); got != want || samples[0].cpuNS != 30_000_000 {
		t.Errorf("sample 1 = %q, %d ns; want %q, 30000000 ns", got, samples[0].cpuNS, want)
	}
	if got := strings.Join(samples[1].stack, " > "); got != "beaconsec/internal/phy.(*Medium).Transmit" || samples[1].cpuNS != 10_000_000 {
		t.Errorf("sample 2 = %q, %d ns", got, samples[1].cpuNS)
	}
	byLayer, total := attribute(samples)
	if byLayer["geo"] != 30_000_000 || byLayer["phy"] != 10_000_000 || total != 40_000_000 {
		t.Errorf("attribution %v, total %d", byLayer, total)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeRuntimeProfile decodes a real runtime/pprof CPU profile.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.cpuNS
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.cpuNS
				break
			}
		}
	}
	if total <= 0 || inSpin <= 0 {
		t.Fatalf("profile of a 300 ms spin: total %d ns, %d ns in spin, %d samples", total, inSpin, len(samples))
	}
}

func TestProfileCovers(t *testing.T) {
	for _, c := range []struct {
		profiled, used float64
		want           bool
	}{
		{30, 30.1, true},
		{0, 0.02, true}, // a phase shorter than a few samples
		{20, 30, false}, // the profile lost a third of the CPU
		{35, 30, false}, // more CPU profiled than the process used
	} {
		if got := profileCovers(c.profiled, c.used); got != c.want {
			t.Errorf("profileCovers(%v, %v) = %v, want %v", c.profiled, c.used, got, c.want)
		}
	}
}
