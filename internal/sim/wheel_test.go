package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// queueKinds builds a Scheduler on each queue implementation directly,
// bypassing the PendingHint rule, so the oracle tests and benchmarks can
// run heap and wheel at any schedule size.
var queueKinds = []struct {
	name  string
	sched func() *Scheduler
}{
	{"heap", newHeapScheduler},
	{"wheel", newWheelScheduler},
}

func newHeapScheduler() *Scheduler  { return &Scheduler{q: &eventQueue{}} }
func newWheelScheduler() *Scheduler { return &Scheduler{q: newWheelQueue()} }

// fire records one executed event for order comparison.
type fire struct {
	id int
	at Time
}

// decodeDelta turns three script bytes into a schedule delay spanning the
// horizons the wheel files differently: same-tick ties, bottom-rung
// near-future, mid-rung, and far-future overflow rungs.
func decodeDelta(class, a, b byte) Time {
	v := Time(a)<<8 | Time(b)
	switch class % 5 {
	case 0:
		return 0 // same-tick tie
	case 1:
		return v % 64 // bottom rung
	case 2:
		return v % 4096
	case 3:
		return v << 10 // mid rungs
	default:
		return v << 28 // far-future overflow rungs
	}
}

// diffQueues drives a heap scheduler and a wheel scheduler through the
// same schedule/cancel/step/run-until script and fails on the first
// divergence in fire order, clock, pending count, cancel outcome, or
// final stats. This is the wheel's oracle harness (the geo.Grid
// brute-force pattern): the heap's (at, seq) order is the contract.
func diffQueues(t *testing.T, script []byte) {
	t.Helper()
	heap := newHeapScheduler()
	wheel := newWheelScheduler()

	var hLog, wLog []fire
	type handlePair struct{ h, w Handle }
	var handles []handlePair
	tag := 0

	i := 0
	next := func() byte {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return b
	}
	checkClocks := func(op string) {
		t.Helper()
		if heap.Now() != wheel.Now() {
			t.Fatalf("%s: clock diverged: heap %v wheel %v", op, heap.Now(), wheel.Now())
		}
		if heap.Pending() != wheel.Pending() {
			t.Fatalf("%s: pending diverged: heap %d wheel %d", op, heap.Pending(), wheel.Pending())
		}
	}

	for i < len(script) {
		switch op := next(); op % 6 {
		case 0, 1: // schedule
			d := decodeDelta(next(), next(), next())
			id := tag
			tag++
			at := heap.Now() + d
			hh := heap.At(at, func() { hLog = append(hLog, fire{id, heap.Now()}) })
			wh := wheel.At(at, func() { wLog = append(wLog, fire{id, wheel.Now()}) })
			handles = append(handles, handlePair{hh, wh})
		case 2: // cancel a (possibly stale) handle
			if len(handles) > 0 {
				k := int(next()) % len(handles)
				ch, cw := handles[k].h.Cancel(), handles[k].w.Cancel()
				if ch != cw {
					t.Fatalf("cancel outcome diverged: heap %v wheel %v", ch, cw)
				}
			}
		case 3: // single step
			sh, sw := heap.Step(), wheel.Step()
			if sh != sw {
				t.Fatalf("step outcome diverged: heap %v wheel %v", sh, sw)
			}
		case 4: // run until a deadline (exercises cursor overshoot + rewind)
			d := decodeDelta(next(), next(), next())
			heap.RunUntil(heap.Now() + d)
			wheel.RunUntil(wheel.Now() + d)
		case 5: // burst of steps
			n := int(next()) % 16
			for j := 0; j < n; j++ {
				heap.Step()
				wheel.Step()
			}
		}
		checkClocks("op")
	}
	if err := heap.Run(); err != nil {
		t.Fatal(err)
	}
	if err := wheel.Run(); err != nil {
		t.Fatal(err)
	}
	checkClocks("drain")

	if len(hLog) != len(wLog) {
		t.Fatalf("fired %d events on heap, %d on wheel", len(hLog), len(wLog))
	}
	for k := range hLog {
		if hLog[k] != wLog[k] {
			t.Fatalf("fire %d diverged: heap %+v wheel %+v", k, hLog[k], wLog[k])
		}
	}
	if hs, ws := heap.Stats(), wheel.Stats(); hs != ws {
		t.Fatalf("stats diverged:\nheap  %+v\nwheel %+v", hs, ws)
	}
}

// TestWheelVsHeapProperty is the randomized differential property test:
// many independent scripts of mixed schedule/cancel/fire/run-until ops,
// every one required to produce the identical (at, seq) pop order on
// both queue implementations.
func TestWheelVsHeapProperty(t *testing.T) {
	scripts := 300
	if testing.Short() {
		scripts = 60
	}
	for seed := 0; seed < scripts; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		script := make([]byte, 100+rnd.Intn(500))
		rnd.Read(script)
		diffQueues(t, script)
	}
}

// FuzzQueueOrder lets the fuzzer hunt for schedule/cancel interleavings
// where the wheel's pop order deviates from the heap oracle — including
// same-tick ties and cancels popped lazily.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // same-tick ties
	f.Add([]byte{1, 4, 255, 255, 3, 3, 3, 3})
	f.Add([]byte{0, 3, 200, 10, 4, 1, 0, 40, 0, 1, 0, 3, 2, 0, 3})
	f.Add([]byte{1, 2, 9, 9, 1, 4, 200, 200, 4, 2, 0, 1, 0, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		diffQueues(t, script)
	})
}

// TestWheelRewindAfterRunUntil pins the rewind path directly: RunUntil
// stops the clock short of the minimum pending event, which has already
// pulled the wheel's cursor forward; the next At lands between the clock
// and the cursor and must still fire in (at, seq) order.
func TestWheelRewindAfterRunUntil(t *testing.T) {
	s := newWheelScheduler()
	var order []int
	s.At(1_000_000, func() { order = append(order, 2) })
	s.RunUntil(10) // cursor has advanced to 1_000_000; now == 10
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
	s.At(11, func() { order = append(order, 0) })   // before the cursor: rewind
	s.At(5000, func() { order = append(order, 1) }) // bottom rung after rewind
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2]", order)
	}
}

// TestWheelSameTickFIFO pins FIFO order among equal times across rungs:
// events scheduled for one instant from different distances (direct
// bottom-rung filing vs. cascaded overflow filing) still fire in
// scheduling order.
func TestWheelSameTickFIFO(t *testing.T) {
	s := newWheelScheduler()
	const target = Time(1 << 20)
	var order []int
	// Scheduled far in advance: files in an overflow rung, cascades later.
	s.At(target, func() { order = append(order, 0) })
	// Burn the clock forward so the next schedule for the same instant
	// files directly in a bottom rung.
	s.At(target-3, func() {
		s.At(target, func() { order = append(order, 1) })
		s.At(target, func() { order = append(order, 2) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order = %v, want [0 1 2] (seq FIFO at equal times)", order)
	}
}

// TestWheelScheduleFireZeroAlloc pins the wheel's steady-state hot path
// to zero heap allocations, mirroring the heap's pin: intrusive slot
// lists plus the pooled free list mean a warm schedule→fire cycle never
// touches the allocator.
func TestWheelScheduleFireZeroAlloc(t *testing.T) {
	s := newWheelScheduler()
	count := 0
	fn := func() { count++ }
	cycle := func() {
		s.At(s.Now()+1, fn)
		s.Step()
	}
	for i := 0; i < 10; i++ { // warm the free list and ready buffer
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state wheel schedule+fire allocates %.1f times per op, want 0", avg)
	}
	if count == 0 {
		t.Fatal("events did not fire")
	}
}

// TestWheelDeepScheduleFireZeroAlloc pins the same property with a
// standing population across many rungs, so cascades are exercised too.
func TestWheelDeepScheduleFireZeroAlloc(t *testing.T) {
	s := newWheelScheduler()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		s.At(s.Now()+Time(1000+i*37), fn)
	}
	cycle := func() {
		s.At(s.Now()+1, fn)
		s.Step()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("deep-queue wheel schedule+fire allocates %.1f times per op, want 0", avg)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDepthHistogram pins the Config.Depth hook: every At observes
// the post-push queue depth.
func TestQueueDepthHistogram(t *testing.T) {
	for _, kind := range queueKinds {
		h := DepthHistogram()
		s := kind.sched()
		s.depth = h
		fn := func() {}
		for i := 0; i < 10; i++ {
			s.At(Time(100+i), fn)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if h.Count != 10 {
			t.Fatalf("%s: depth histogram has %d observations, want 10", kind.name, h.Count)
		}
		if h.Max != 10 {
			t.Fatalf("%s: depth histogram Max = %v, want 10", kind.name, h.Max)
		}
	}
}

// TestQueueAutoSelection pins the selection rule: the heap below
// wheelThreshold pending events, the wheel at or above it, and the heap
// for New() and the zero-value Scheduler.
func TestQueueAutoSelection(t *testing.T) {
	var zero Scheduler
	zero.At(1, func() {})
	const heap, wheel = "*sim.eventQueue", "*sim.wheelQueue"
	cases := []struct {
		name string
		s    *Scheduler
		want string
	}{
		{"hint 0", NewWithConfig(Config{}), heap},
		{"hint threshold-1", NewWithConfig(Config{PendingHint: wheelThreshold - 1}), heap},
		{"hint threshold", NewWithConfig(Config{PendingHint: wheelThreshold}), wheel},
		{"New", New(), heap},
		{"zero value", &zero, heap},
	}
	for _, tc := range cases {
		if got := fmt.Sprintf("%T", tc.s.q); got != tc.want {
			t.Errorf("%s: selected %s, want %s", tc.name, got, tc.want)
		}
	}
}

// benchScheduleFire measures the steady-state schedule→fire cycle on a
// scheduler with a standing population of `standing` pending events and
// randomized short-horizon timer delays — the MAC/phy timer distribution
// the wheel is built for. The delay sequence is a fixed xorshift stream,
// identical for every queue.
func benchScheduleFire(b *testing.B, s *Scheduler, standing int) {
	fn := func() {}
	rnd := uint64(0x9E3779B97F4A7C15)
	horizon := func() Time {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return Time(rnd%(1<<22)) + 1
	}
	for i := 0; i < standing; i++ {
		s.At(s.Now()+horizon(), fn)
	}
	for i := 0; i < 1024; i++ { // warm free list and ready buffer
		s.At(s.Now()+horizon(), fn)
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+horizon(), fn)
		s.Step()
	}
}

// BenchmarkSchedulerWheelFire is the wheel counterpart of
// BenchmarkScheduleFire: warm steady state, no standing queue.
func BenchmarkSchedulerWheelFire(b *testing.B) { benchScheduleFire(b, newWheelScheduler(), 0) }

// BenchmarkSchedulerFireDepth measures the mixed-horizon cycle on both
// queues across standing populations that bracket wheelThreshold: the
// heap wins on small schedules, the wheel from about 256 events up
// (1000 is the paper-scale regime).
func BenchmarkSchedulerFireDepth(b *testing.B) {
	for _, kind := range queueKinds {
		for _, standing := range []int{2, 16, 64, 256, 1000} {
			b.Run(fmt.Sprintf("%s/%d", kind.name, standing), func(b *testing.B) {
				benchScheduleFire(b, kind.sched(), standing)
			})
		}
	}
}

// skipInShort gates the metro-scale macro benchmarks out of -short bench
// smokes (CI runs every benchmark at -benchtime 1x -short): building a
// million-event backlog takes seconds even for a single iteration.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("metro-scale macro benchmark; run without -short")
	}
}

// BenchmarkSchedulerHeapFireMillion and BenchmarkSchedulerWheelFireMillion
// are the metro-scale acceptance pair: schedule+fire throughput with one
// million standing pending events, where the heap pays divergent
// ~20-level sift paths per operation and the wheel files in O(1).
func BenchmarkSchedulerHeapFireMillion(b *testing.B) {
	skipInShort(b)
	benchScheduleFire(b, newHeapScheduler(), 1_000_000)
}

func BenchmarkSchedulerWheelFireMillion(b *testing.B) {
	skipInShort(b)
	benchScheduleFire(b, newWheelScheduler(), 1_000_000)
}

// BenchmarkSchedulerWheelMillion and BenchmarkSchedulerHeapMillion are
// the end-to-end metro measurement: schedule a one-million-event backlog
// spread across rungs, then drain it — total schedule+fire throughput at
// up to 1M pending events.
func BenchmarkSchedulerWheelMillion(b *testing.B) { benchMillion(b, newWheelScheduler()) }
func BenchmarkSchedulerHeapMillion(b *testing.B)  { benchMillion(b, newHeapScheduler()) }

func benchMillion(b *testing.B, s *Scheduler) {
	skipInShort(b)
	const backlog = 1_000_000
	fn := func() {}
	cycle := func() {
		base := s.Now()
		for j := 0; j < backlog; j++ {
			s.At(base+Time(j%97)*8191+Time(j), fn)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	cycle() // warm the free list so iterations measure queue work, not allocation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(backlog)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
