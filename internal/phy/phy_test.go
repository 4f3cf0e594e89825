package phy

import (
	"math"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

func newTestMedium(cfg Config) (*sim.Scheduler, *Medium) {
	sched := sim.New()
	m := NewMedium(sched, rng.New(1), cfg)
	return sched, m
}

func frame(n int) Frame { return Frame{Data: make([]byte, n)} }

func TestTimingConstants(t *testing.T) {
	if CyclesPerBit != 384 {
		t.Errorf("CyclesPerBit = %d, paper says 384", CyclesPerBit)
	}
	if CyclesPerByte != 8*384 {
		t.Errorf("CyclesPerByte = %d", CyclesPerByte)
	}
	if FrameAirTime(20) != 20*CyclesPerByte {
		t.Errorf("FrameAirTime(20) = %v", FrameAirTime(20))
	}
}

func TestDeliveryInRangeOnly(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	near := m.NewRadio(geo.Point{X: 100, Y: 0})
	far := m.NewRadio(geo.Point{X: 151, Y: 0})
	var nearGot, farGot int
	near.SetHandler(func(Reception) { nearGot++ })
	far.SetHandler(func(Reception) { farGot++ })
	m.Transmit(tx, frame(16))
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if nearGot != 1 {
		t.Errorf("near radio got %d frames, want 1", nearGot)
	}
	if farGot != 0 {
		t.Errorf("out-of-range radio got %d frames, want 0", farGot)
	}
	if got := m.Stats().Deliveries; got != 1 {
		t.Errorf("Deliveries = %d", got)
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	got := 0
	tx.SetHandler(func(Reception) { got++ })
	m.Transmit(tx, frame(16))
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("sender received its own frame %d times", got)
	}
}

func TestTransmitTiming(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 10, Y: 0})
	var end, firstByte sim.Time // copied out: a Reception lives only during the call
	rx.SetHandler(func(r Reception) { end, firstByte = r.End(), r.FirstByteSPDR() })
	sched.At(1000, func() {
		info := m.Transmit(tx, frame(20))
		if info.AirStart != 1000 {
			t.Errorf("AirStart = %v", info.AirStart)
		}
		if info.AirEnd != 1000+FrameAirTime(20) {
			t.Errorf("AirEnd = %v", info.AirEnd)
		}
		// t1 is before the first byte finishes on air, within the
		// jitter bounds.
		j := DefaultJitter()
		lo := 1000 + CyclesPerByte - sim.Time(j.Max)
		hi := 1000 + CyclesPerByte - sim.Time(j.Min)
		if info.FirstByteSPDR < lo || info.FirstByteSPDR > hi {
			t.Errorf("FirstByteSPDR = %v, want in [%v, %v]", info.FirstByteSPDR, lo, hi)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 1000+FrameAirTime(20) {
		t.Errorf("reception End = %v before air end", end)
	}
	// t2 is after the first byte arrives.
	if firstByte <= 1000+CyclesPerByte {
		t.Errorf("receiver FirstByteSPDR = %v, want after first byte air time", firstByte)
	}
}

func TestRTTStructure(t *testing.T) {
	// The core PHY property the paper's Figure 4 rests on: a full
	// request/reply exchange's RTT = (t4-t1)-(t3-t2) lands in
	// [4*Jitter.Min, 4*Jitter.Max] (+ tiny propagation), regardless of
	// MAC/processing delay between t2 and t3.
	const trials = 500
	sched, m := newTestMedium(Config{Range: 150})
	a := m.NewRadio(geo.Point{X: 0, Y: 0})
	b := m.NewRadio(geo.Point{X: 100, Y: 0})
	j := DefaultJitter()

	var rtts []float64
	var t1, t2, t3, t4 sim.Time
	bHandler := func(rec Reception) {
		t2 = rec.FirstByteSPDR()
		// Arbitrary processing delay before replying: must cancel. Kept
		// below the inter-exchange gap so consecutive exchanges never
		// overlap on air.
		procDelay := sim.Time(1000 + (len(rtts)*777)%100000)
		sched.After(procDelay, func() {
			info := m.Transmit(b, frame(16))
			t3 = info.FirstByteSPDR
		})
	}
	aHandler := func(rec Reception) {
		t4 = rec.FirstByteSPDR()
		rtts = append(rtts, float64(t4-t1)-float64(t3-t2))
	}
	b.SetHandler(bHandler)
	a.SetHandler(aHandler)

	var kick func()
	kicks := 0
	kick = func() {
		if len(rtts) >= trials || kicks > 2*trials {
			return
		}
		kicks++
		info := m.Transmit(a, frame(16))
		t1 = info.FirstByteSPDR
		// Next exchange well after this one completes.
		sched.After(sim.Millis(50), kick)
	}
	sched.At(0, kick)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rtts) != trials {
		t.Fatalf("completed %d exchanges, want %d", len(rtts), trials)
	}
	lo, hi := 4*j.Min-1, 4*j.Max+3 // +2 propagation cycles margin
	for i, r := range rtts {
		if r < lo || r > hi {
			t.Fatalf("exchange %d: RTT %v outside [%v, %v]", i, r, lo, hi)
		}
	}
	// Spread should be close to the paper's 4.5 bit-times.
	minR, maxR := rtts[0], rtts[0]
	for _, r := range rtts {
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if spread := maxR - minR; spread > 4.5*CyclesPerBit+8 {
		t.Errorf("RTT spread %v exceeds 4.5 bit-times (%v)", spread, 4.5*CyclesPerBit)
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx1 := m.NewRadio(geo.Point{X: 0, Y: 0})
	tx2 := m.NewRadio(geo.Point{X: 200, Y: 0})
	rx := m.NewRadio(geo.Point{X: 100, Y: 0})
	got := 0
	rx.SetHandler(func(Reception) { got++ })
	// Overlapping transmissions.
	sched.At(0, func() { m.Transmit(tx1, frame(20)) })
	sched.At(100, func() { m.Transmit(tx2, frame(20)) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("receiver decoded %d frames during collision, want 0", got)
	}
	if m.Stats().Collisions == 0 {
		t.Error("collision not counted")
	}
}

func TestNonOverlappingFramesBothDelivered(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx1 := m.NewRadio(geo.Point{X: 0, Y: 0})
	tx2 := m.NewRadio(geo.Point{X: 200, Y: 0})
	rx := m.NewRadio(geo.Point{X: 100, Y: 0})
	got := 0
	rx.SetHandler(func(Reception) { got++ })
	sched.At(0, func() { m.Transmit(tx1, frame(20)) })
	sched.At(FrameAirTime(20)+1000, func() { m.Transmit(tx2, frame(20)) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	busy := m.NewRadio(geo.Point{X: 100, Y: 0})
	got := 0
	busy.SetHandler(func(Reception) { got++ })
	// busy starts a long transmission, then tx transmits into it.
	sched.At(0, func() { m.Transmit(busy, frame(30)) })
	sched.At(100, func() { m.Transmit(tx, frame(16)) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("transmitting radio received %d frames, want 0", got)
	}
}

func TestInjectDeliversFromOrigin(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150, Ranging: Perfect{}})
	rx := m.NewRadio(geo.Point{X: 0, Y: 0})
	var measured float64
	var replayed bool
	n := 0
	rx.SetHandler(func(r Reception) { measured, replayed = r.MeasuredDist(), r.Frame.Replayed; n++ })
	m.Inject(m.NewEmitter(geo.Point{X: 30, Y: 40}), Frame{Data: make([]byte, 16), Replayed: true})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("injected frame delivered %d times", n)
	}
	if measured != 50 {
		t.Errorf("MeasuredDist = %v, want 50 (distance to injection point)", measured)
	}
	if !replayed {
		t.Error("Replayed flag lost in delivery")
	}
}

func TestRangeBiasShiftsMeasurement(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150, Ranging: Perfect{}})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 50, Y: 0})
	var got float64
	rx.SetHandler(func(r Reception) { got = r.MeasuredDist() })
	m.Transmit(tx, Frame{Data: make([]byte, 16), RangeBias: 40})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 90 {
		t.Errorf("MeasuredDist = %v, want 90 with +40 bias", got)
	}
}

func TestBoundedUniformRanging(t *testing.T) {
	r := BoundedUniform{MaxError: 10}
	src := rng.New(5)
	for i := 0; i < 10000; i++ {
		d := r.Apply(100, r.Error(src))
		if d < 90 || d > 110 {
			t.Fatalf("measurement %v outside ±10 of 100", d)
		}
	}
	// Never negative.
	for i := 0; i < 1000; i++ {
		if d := r.Apply(1, r.Error(src)); d < 0 {
			t.Fatalf("negative measurement %v", d)
		}
	}
}

func TestTruncatedGaussianRanging(t *testing.T) {
	r := TruncatedGaussian{Sigma: 4, MaxError: 10}
	src := rng.New(6)
	var sum float64
	for i := 0; i < 10000; i++ {
		d := r.Apply(100, r.Error(src))
		if d < 90 || d > 110 {
			t.Fatalf("measurement %v outside truncation", d)
		}
		sum += d
	}
	if mean := sum / 10000; math.Abs(mean-100) > 0.5 {
		t.Errorf("gaussian ranging mean %v, want ~100", mean)
	}
}

// measureOneStep is the one-step Measure(trueDist, src) that Ranging had
// before the Error/Apply split, kept verbatim as the reference.
func measureOneStep(r Ranging, trueDist float64, src *rng.Source) float64 {
	switch r := r.(type) {
	case BoundedUniform:
		d := trueDist + src.Uniform(-r.MaxError, r.MaxError)
		if d < 0 {
			d = 0
		}
		return d
	case TruncatedGaussian:
		e := r.Sigma * src.NormFloat64()
		if e > r.MaxError {
			e = r.MaxError
		}
		if e < -r.MaxError {
			e = -r.MaxError
		}
		d := trueDist + e
		if d < 0 {
			d = 0
		}
		return d
	case Perfect:
		return trueDist
	}
	panic("unknown ranging model")
}

// TestRangingSplitMatchesMeasure pins the lazy ranging path: drawing the
// error at delivery and applying it on read gives the one-step
// measurement bit for bit, and consumes the same rng draws, so the two
// streams stay in lockstep. Biased distances go negative, where Perfect
// passes the value through and the other models clamp to 0.
func TestRangingSplitMatchesMeasure(t *testing.T) {
	for _, r := range []Ranging{
		BoundedUniform{MaxError: 10},
		TruncatedGaussian{Sigma: 4, MaxError: 10},
		TruncatedGaussian{Sigma: 8, MaxError: 3}, // truncation binds often
		Perfect{},
	} {
		dists := rng.New(3)
		ref, split := rng.New(11), rng.New(11)
		negative := 0
		for i := 0; i < 20000; i++ {
			d := dists.Uniform(0, 150) + dists.Uniform(-200, 60) // true distance + RangeBias
			if d < 0 {
				negative++
			}
			want := measureOneStep(r, d, ref)
			got := r.Apply(d, r.Error(split))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%T: Apply(%v, Error) = %v, one-step Measure = %v", r, d, got, want)
			}
			if _, perfect := r.(Perfect); !perfect && got < 0 {
				t.Fatalf("%T: negative measurement %v", r, got)
			}
			if a, b := ref.Uint64(), split.Uint64(); a != b {
				t.Fatalf("%T: rng streams diverge after draw %d", r, i)
			}
		}
		if negative < 1000 {
			t.Fatalf("%T: only %d negative biased distances; the clamp is untested", r, negative)
		}
	}
}

func TestBusyCarrierSense(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 1000})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	other := m.NewRadio(geo.Point{X: 100, Y: 0})
	if m.Busy(other) {
		t.Error("idle channel reported busy")
	}
	sched.At(0, func() {
		m.Transmit(tx, frame(30))
	})
	sched.At(100, func() {
		if !m.Busy(other) {
			t.Error("receiver in range of active transmission reports idle")
		}
		if !m.Busy(tx) {
			t.Error("transmitting radio reports idle")
		}
	})
	sched.At(FrameAirTime(30)+1000, func() {
		if m.Busy(other) {
			t.Error("channel still busy after air end")
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeRewritesData(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 10, Y: 0})
	var got []byte
	rx.SetHandler(func(r Reception) { got = r.Frame.Data })
	var sawT3 sim.Time
	sched.At(10000, func() {
		m.Transmit(tx, Frame{
			Data: make([]byte, 16),
			Finalize: func(t3 sim.Time) []byte {
				sawT3 = t3
				out := make([]byte, 16)
				out[0] = 0xEE
				return out
			},
		})
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if sawT3 == 0 {
		t.Error("Finalize not called with t3")
	}
	if len(got) != 16 || got[0] != 0xEE {
		t.Errorf("receiver got %v, want finalized data", got)
	}
}

func TestFinalizeSizeChangePanics(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	sched.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("size-changing Finalize did not panic")
			}
		}()
		m.Transmit(tx, Frame{
			Data:     make([]byte, 16),
			Finalize: func(sim.Time) []byte { return make([]byte, 17) },
		})
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFramePanics(t *testing.T) {
	_, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	defer func() {
		if recover() == nil {
			t.Error("empty frame did not panic")
		}
	}()
	m.Transmit(tx, Frame{})
}

func TestBadConfigPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		rangeFt float64
	}{
		{"zero range", 0},
		// A link stores its propagation delay in 32 bits.
		{"range overflowing a link's delay", 1e12},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			NewMedium(sim.New(), rng.New(1), Config{Range: c.rangeFt})
		}()
	}
}

func TestTapSeesAllTransmissions(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 5, Y: 6})
	var origins []geo.Point
	m.AddTap(func(origin geo.Point, f Frame, info TxInfo) {
		origins = append(origins, origin)
	})
	m.Transmit(tx, frame(16))
	m.Inject(m.NewEmitter(geo.Point{X: 70, Y: 80}), frame(16))
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(origins) != 2 {
		t.Fatalf("tap saw %d transmissions, want 2", len(origins))
	}
	if origins[0] != (geo.Point{X: 5, Y: 6}) || origins[1] != (geo.Point{X: 70, Y: 80}) {
		t.Errorf("tap origins = %v", origins)
	}
}
