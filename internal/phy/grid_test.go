package phy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// raceEnabled is set by race_test.go under -race builds.
var raceEnabled bool

// receptionLog records everything a handler observes, for cross-medium
// comparison.
type receptionLog struct {
	radio     int
	data0     byte
	measured  float64
	firstByte sim.Time
	end       sim.Time
}

// loggedMedium is a medium whose every radio logs what its handler
// observes. All rng streams are seeded identically across instances, so
// two mediums differing only in BruteForce must behave byte-identically.
type loggedMedium struct {
	sched    *sim.Scheduler
	m        *Medium
	radios   []*Radio
	emitters []*Emitter
	log      []receptionLog
}

func newLoggedMedium(positions, emitters []geo.Point, brute bool) *loggedMedium {
	sched := sim.New()
	lm := &loggedMedium{sched: sched, m: NewMedium(sched, rng.New(42), Config{
		Range:      150,
		Ranging:    BoundedUniform{MaxError: 10},
		BruteForce: brute,
	})}
	for _, p := range positions {
		lm.add(p)
	}
	for _, p := range emitters {
		lm.emitters = append(lm.emitters, lm.m.NewEmitter(p))
	}
	return lm
}

// add registers a logging radio at p; its log index is its registration
// index.
func (lm *loggedMedium) add(p geo.Point) {
	i := len(lm.radios)
	r := lm.m.NewRadio(p)
	r.SetHandler(func(rec Reception) {
		lm.log = append(lm.log, receptionLog{
			radio:     i,
			data0:     rec.Frame.Data[0],
			measured:  rec.MeasuredDist(),
			firstByte: rec.FirstByteSPDR(),
			end:       rec.End(),
		})
	})
	lm.radios = append(lm.radios, r)
}

// TestGridDeliveryMatchesBruteForce pins the link-table contract: the
// tables of radios (Transmit) and emitters (Inject) resolve exactly the
// receivers the historical O(N) scan did, in the same order and with the
// same propagation delays, consuming the medium's rng stream identically
// — so every downstream byte (measurements, timestamps, event order) is
// unchanged. Injection points repeat, as wormhole exits and replay
// attackers do. Radios registered mid-run, after in-range radios and
// emitters have built their tables, must be appended to those tables;
// an isolated radio keeps its empty table rather than rebuilding it on
// every transmit; and each launch point builds its table exactly once.
func TestGridDeliveryMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rnd.Intn(180)
		positions := make([]geo.Point, n)
		for i := range positions {
			// Include off-field positions (wormhole endpoints, replay
			// attackers can sit anywhere).
			positions[i] = geo.Point{
				X: -100 + 1200*rnd.Float64(),
				Y: -100 + 1200*rnd.Float64(),
			}
		}
		// A colocated pair and a pair exactly Range apart (boundary).
		positions[0] = geo.Point{X: 500, Y: 500}
		positions[1] = geo.Point{X: 500, Y: 500}
		positions[2] = geo.Point{X: 650, Y: 500} // exactly 150 from [0]
		// An isolated radio, out of range of everything on the field.
		iso := n - 1
		positions[iso] = geo.Point{X: 5000, Y: 5000}

		// Six injection points shared by the random injections (about
		// ten), then one 50 ft from each late registration below.
		emitters := make([]geo.Point, 6, 9)
		for i := range emitters {
			emitters[i] = geo.Point{X: 1200 * rnd.Float64(), Y: 1200 * rnd.Float64()}
		}

		type action struct {
			fromRadio   int       // -1: Inject from fromEmitter, or register
			fromEmitter int       // index into emitters
			origin      geo.Point // where NewRadio registers
			register    bool
			at          sim.Time
			size        int
		}
		actions := make([]action, 40)
		for i := range actions {
			a := action{fromRadio: -1, at: sim.Time(rnd.Intn(5_000_000)), size: 8 + rnd.Intn(24)}
			if rnd.Intn(4) > 0 {
				a.fromRadio = rnd.Intn(n)
			} else {
				a.fromEmitter = rnd.Intn(len(emitters))
			}
			actions[i] = a
		}
		for _, at := range []sim.Time{100_000, 2_100_000, 4_100_000} {
			actions = append(actions, action{fromRadio: iso, at: at, size: 12})
		}
		// Late registration: host radio and emitter each launch (building
		// their tables), then radio n+k registers within range of both,
		// then all three launch. The registration times are ordered, so
		// the late radio's index is n+k in both runs.
		for k := 0; k < 3; k++ {
			host := rnd.Intn(iso)
			reg := sim.Time(1_000_000 * (k + 1))
			late := positions[host]
			late.X += 100 * rnd.Float64()
			late.Y += 100 * rnd.Float64()
			em := len(emitters)
			emitters = append(emitters, geo.Point{X: late.X - 40, Y: late.Y + 30})
			actions = append(actions,
				action{fromRadio: host, at: reg - 500_000, size: 10},
				action{fromRadio: -1, fromEmitter: em, at: reg - 400_000, size: 9},
				action{fromRadio: -1, register: true, origin: late, at: reg},
				action{fromRadio: host, at: reg + 500_000, size: 11},
				action{fromRadio: -1, fromEmitter: em, at: reg + 550_000, size: 12},
				action{fromRadio: n + k, at: reg + 600_000, size: 13},
			)
		}

		run := func(brute bool) *loggedMedium {
			lm := newLoggedMedium(positions, emitters, brute)
			for _, a := range actions {
				a := a
				lm.sched.At(a.at, func() {
					if a.register {
						lm.add(a.origin)
						return
					}
					f := Frame{Data: make([]byte, a.size)}
					f.Data[0] = byte(a.size)
					if a.fromRadio >= 0 {
						lm.m.Transmit(lm.radios[a.fromRadio], f)
					} else {
						lm.m.Inject(lm.emitters[a.fromEmitter], f)
					}
				})
			}
			if err := lm.sched.Run(); err != nil {
				t.Fatal(err)
			}
			return lm
		}

		table, brute := run(false), run(true)
		if table.m.Stats() != brute.m.Stats() {
			t.Fatalf("trial %d: stats diverge: table %+v vs brute %+v", trial, table.m.Stats(), brute.m.Stats())
		}
		if len(table.log) != len(brute.log) {
			t.Fatalf("trial %d: %d receptions via table, %d via brute force", trial, len(table.log), len(brute.log))
		}
		for i := range table.log {
			if table.log[i] != brute.log[i] {
				t.Fatalf("trial %d: reception %d diverges: table %+v vs brute %+v",
					trial, i, table.log[i], brute.log[i])
			}
		}
		if r := table.radios[iso]; !r.built || len(r.tab) != 0 {
			t.Fatalf("trial %d: isolated radio table built=%v len=%d, want built and empty",
				trial, r.built, len(r.tab))
		}
		senders, injectors := map[int]bool{}, map[int]bool{}
		for _, a := range actions {
			switch {
			case a.fromRadio >= 0:
				senders[a.fromRadio] = true
			case !a.register:
				injectors[a.fromEmitter] = true
			}
		}
		if want := len(senders) + len(injectors); table.m.builds != want {
			t.Fatalf("trial %d: %d table builds for %d distinct senders and %d emitters, want one each",
				trial, table.m.builds, len(senders), len(injectors))
		}
		// Every table built, then extended by the late registrations, must
		// equal a fresh scan from its launch point.
		for i, r := range table.radios {
			if r.built && !slices.Equal(r.tab, table.m.scan(r.pos, r)) {
				t.Fatalf("trial %d: radio %d table %v, scan %v", trial, i, r.tab, table.m.scan(r.pos, r))
			}
		}
		for i, e := range table.emitters {
			if e.built != injectors[i] {
				t.Fatalf("trial %d: emitter %d built=%v, injected=%v", trial, i, e.built, injectors[i])
			}
			if e.built && !slices.Equal(e.tab, table.m.scan(e.pos, nil)) {
				t.Fatalf("trial %d: emitter %d table %v, scan %v", trial, i, e.tab, table.m.scan(e.pos, nil))
			}
		}
	}
}

// TestTransmitSteadyStateZeroAlloc pins the pooling work: once the
// event free list, fanout pool, scratch buffers and link tables
// are warm, a transmit→deliver cycle performs zero heap allocations
// (the frame buffer itself is owned and reused by the caller here, as
// the benchmarks and batch paths do). The Inject cycle pins an
// emitter's table, which radio-less launches walk.
func TestTransmitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	for i := 0; i < 40; i++ {
		m.NewRadio(geo.Point{X: float64(i), Y: 10})
	}
	buf := make([]byte, 16)
	exit := m.NewEmitter(geo.Point{X: 20, Y: 0})
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"transmit", func() {
			m.Transmit(tx, Frame{Data: buf})
			sched.Run()
		}},
		{"inject", func() {
			m.Inject(exit, Frame{Data: buf})
			sched.Run()
		}},
	} {
		for i := 0; i < 50; i++ { // warm pools
			c.cycle()
		}
		if avg := testing.AllocsPerRun(100, c.cycle); avg != 0 {
			t.Fatalf("steady-state %s+deliver allocates %.1f times per op, want 0", c.name, avg)
		}
	}
}

// TestSignEncodeDeliverVerifyZeroAlloc pins the full hot path the issue
// targets: append-style encode (with HMAC sign) into a reused buffer,
// radio delivery through the pooled medium, and authenticated decode at
// the receiver — zero heap allocations per frame in steady state.
func TestSignEncodeDeliverVerifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; allocation pin not meaningful")
	}
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	rx := m.NewRadio(geo.Point{X: 50, Y: 0})
	key := crypto.KDF(crypto.Key{}, []byte("grid-test"))
	delivered := 0
	rx.SetHandler(func(rec Reception) {
		pkt, err := packet.Decode(rec.Frame.Data, key)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		if pkt.Header.Type != packet.TypeBeaconRequest {
			t.Errorf("type = %v", pkt.Header.Type)
		}
		delivered++
	})
	buf := make([]byte, 0, packet.MaxSize)
	seq := uint16(0)
	cycle := func() {
		seq++
		var err error
		buf, err = packet.EncodeTo(buf[:0], ident.NodeID(1), ident.NodeID(2), seq, packet.BeaconRequest{}, key)
		if err != nil {
			t.Fatal(err)
		}
		m.Transmit(tx, Frame{Data: buf})
		sched.Run()
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	before := delivered
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("sign→encode→deliver→verify allocates %.1f times per op, want 0", avg)
	}
	if delivered <= before {
		t.Fatal("handler stopped receiving frames during the alloc measurement")
	}
}

// benchTransmit measures one launch (receiver resolution plus the
// scheduler drain of its deliveries) against nRadios radios deployed at
// the paper's density — the field grows with N, as the north-star
// scaling story demands. Neighbor counts therefore stay constant
// (~80), so a Transmit walks its radio's O(neighbors) link table and
// an Inject from the same point its emitter's, while the brute-force
// path pays the O(N) scan. Pools are warmed before the timer starts so the
// reported allocs/op is the steady state. events/op is the scheduler
// events one launch fires: one per distinct arrival instant, at most two
// at the 150 ft range.
func benchTransmit(b *testing.B, nRadios int, brute, inject bool) {
	// Paper density: 1,110 nodes in a 1000×1000 ft field.
	side := math.Sqrt(float64(nRadios) * 1e6 / 1110)
	rnd := rand.New(rand.NewSource(5))
	sched := sim.New()
	m := NewMedium(sched, rng.New(7), Config{
		Range:      150,
		Ranging:    BoundedUniform{MaxError: 10},
		BruteForce: brute,
	})
	for i := 0; i < nRadios; i++ {
		r := m.NewRadio(geo.Point{X: side * rnd.Float64(), Y: side * rnd.Float64()})
		r.SetHandler(func(Reception) {})
	}
	tx := m.NewRadio(geo.Point{X: side / 2, Y: side / 2})
	exit := m.NewEmitter(tx.Pos())
	buf := make([]byte, 24)
	launch := func() {
		if inject {
			m.Inject(exit, Frame{Data: buf})
		} else {
			m.Transmit(tx, Frame{Data: buf})
		}
		sched.Run()
	}
	for i := 0; i < 100; i++ { // warm the event and fanout pools
		launch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	fired := sched.Fired()
	for i := 0; i < b.N; i++ {
		launch()
	}
	b.ReportMetric(float64(sched.Fired()-fired)/float64(b.N), "events/op")
}

func BenchmarkTransmit(b *testing.B) {
	b.Run("radios=1", func(b *testing.B) { benchTransmit(b, 1, false, false) })
	b.Run("radios=100", func(b *testing.B) { benchTransmit(b, 100, false, false) })
	b.Run("radios=1000", func(b *testing.B) { benchTransmit(b, 1000, false, false) })
	b.Run("radios=10000", func(b *testing.B) { benchTransmit(b, 10000, false, false) })
}

func BenchmarkInject(b *testing.B) {
	b.Run("radios=100", func(b *testing.B) { benchTransmit(b, 100, false, true) })
	b.Run("radios=1000", func(b *testing.B) { benchTransmit(b, 1000, false, true) })
	b.Run("radios=10000", func(b *testing.B) { benchTransmit(b, 10000, false, true) })
}

func BenchmarkTransmitBruteForce(b *testing.B) {
	b.Run("radios=100", func(b *testing.B) { benchTransmit(b, 100, true, false) })
	b.Run("radios=1000", func(b *testing.B) { benchTransmit(b, 1000, true, false) })
	b.Run("radios=10000", func(b *testing.B) { benchTransmit(b, 10000, true, false) })
}
