// Package sim is a deterministic discrete-event simulation kernel with a
// cycle-resolution virtual clock.
//
// It replaces the TinyOS Nido simulator the paper used: every protocol
// action in this repository — radio byte shifts, MAC backoffs, timer
// expirations, base-station processing — is an event on one Scheduler.
// Time is measured in CPU clock cycles of a 7.3728 MHz MICA2-class mote,
// because the paper's round-trip-time detector (Figure 4) is calibrated in
// CPU cycles.
//
// Determinism: events at equal times fire in scheduling order (FIFO),
// which combined with the seeded rng package makes every run reproducible.
// The scheduler has two event-queue implementations behind one
// interface — a binary min-heap and a hierarchical timing wheel — pinned
// to the identical (at, seq) total order (see DESIGN.md §13). It picks
// one from the expected schedule size alone, so the choice never changes
// behavior.
package sim

import (
	"errors"
	"fmt"

	"beaconsec/internal/metrics"
)

// Time is a point in virtual time, in CPU clock cycles.
type Time uint64

// CPUHz is the simulated mote CPU frequency (MICA2 ATmega128L).
const CPUHz = 7_372_800

// Duration helpers.

// Millis converts milliseconds of wall time to cycles.
func Millis(ms float64) Time { return Time(ms * CPUHz / 1e3) }

// Micros converts microseconds of wall time to cycles.
func Micros(us float64) Time { return Time(us * CPUHz / 1e6) }

// Seconds converts seconds of wall time to cycles.
func Seconds(s float64) Time { return Time(s * CPUHz) }

// Seconds returns t in seconds of simulated wall time.
func (t Time) Seconds() float64 { return float64(t) / CPUHz }

// String implements fmt.Stringer with both cycles and milliseconds.
func (t Time) String() string {
	return fmt.Sprintf("%dcy (%.3fms)", uint64(t), float64(t)/CPUHz*1e3)
}

// ErrStopped is returned by Run when the scheduler was stopped explicitly
// before the event queue drained.
var ErrStopped = errors.New("sim: scheduler stopped")

// event is a scheduled callback. Events are pooled: after firing (or
// after a cancelled event is popped) the struct returns to the
// scheduler's free list with its generation bumped, so a Handle held
// across the recycle can never cancel the event's next occupant.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	gen uint64 // recycle generation, checked by Handle.Cancel
	fn  func()
	// index is ≥ 0 while queued and -1 once popped. The heap stores its
	// slot here; the wheel only distinguishes queued from popped.
	index int
	// next chains events in a timing-wheel slot (intrusive list, so the
	// wheel never allocates per pending event). Unused by the heap.
	next *event
}

// Handle identifies a scheduled event so it can be cancelled. A Handle
// is pinned to the event's generation: once the event fires and its
// struct is recycled for a later At, the stale Handle becomes inert.
type Handle struct {
	ev  *event
	s   *Scheduler
	gen uint64
}

// Cancel removes the event from the queue if it has not fired yet and
// reports whether it was cancelled.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.index < 0 || h.ev.fn == nil {
		return false
	}
	h.ev.fn = nil
	if h.s != nil {
		h.s.cancelled++
	}
	return true
}

// queue is the event-queue contract the Scheduler drives. Both
// implementations deliver events in ascending (at, seq) order — the
// determinism contract — and keep cancelled events enqueued until popped
// (lazy cancellation), so size() and pop sequences are identical across
// implementations.
type queue interface {
	// push enqueues ev (setting ev.index ≥ 0). ev.at may lie before a
	// previously popped event's time only if the scheduler allows it
	// (RunUntil advances the clock past pending events' times, never the
	// reverse), but implementations must accept any at ≥ the last pop.
	push(ev *event)
	// pop removes and returns the minimum event by (at, seq), setting its
	// index to -1. Call only when size() > 0.
	pop() *event
	// size returns the number of queued events, including cancelled ones
	// not yet popped.
	size() int64
	// nextAt returns the time of the minimum queued event. ok is false
	// when the queue is empty.
	nextAt() (t Time, ok bool)
}

// eventQueue is a binary min-heap ordered by (at, seq). It is typed
// (not container/heap) so sift operations avoid interface dispatch on
// the kernel's hottest path. It is the oracle implementation the timing
// wheel is pinned against.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) push(ev *event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	// Sift up.
	h := *q
	i := ev.index
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	h.swap(0, n)
	ev := h[n]
	h[n] = nil
	ev.index = -1
	h = h[:n]
	*q = h
	// Sift down from the root.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return ev
}

func (q *eventQueue) size() int64 { return int64(len(*q)) }

func (q *eventQueue) nextAt() (Time, bool) {
	if len(*q) == 0 {
		return 0, false
	}
	return (*q)[0].at, true
}

// wheelThreshold is the PendingHint at which NewWithConfig switches from
// the heap to the timing wheel. Below it the heap's short sifts beat the
// wheel's slot bitmap scans and 196 KB slot array; at 256 standing events
// the two cross (measured in EXPERIMENTS.md "Event-queue selection").
const wheelThreshold = 256

// Config parameterizes a Scheduler. The zero value reproduces New().
type Config struct {
	// PendingHint is the expected steady-state number of pending events.
	// It picks the queue — the heap below wheelThreshold, the timing
	// wheel at or above it — and presizes the free list. Zero means
	// unknown, which selects the heap.
	PendingHint int64
	// Depth, when non-nil, observes the queue depth after every schedule
	// — the standing event population histogram. Nil disables (no cost
	// beyond one predictable branch).
	Depth *metrics.Histogram
}

// DepthHistogram returns a histogram sized for Config.Depth observations:
// geometric buckets from 1 to ~8M pending events, covering everything
// from paper-scale runs to metro-scale standing populations.
func DepthHistogram() *metrics.Histogram {
	return metrics.NewHistogram(metrics.ExpBounds(1, 2, 24)...)
}

// Scheduler owns the virtual clock and the event queue. The zero value is
// ready to use (heap queue). Scheduler is not safe for concurrent use: the
// simulation is single-threaded by design (determinism), and experiments
// parallelize across independent Scheduler instances instead.
type Scheduler struct {
	now        Time
	seq        uint64
	q          queue
	free       []*event // recycled event structs, see event.gen
	stopped    bool
	fired      uint64
	cancelled  uint64
	maxPending int64
	depth      *metrics.Histogram
}

// initialQueueCap pre-sizes the event queue and free list so a typical
// protocol run reaches its steady state without growing either slice.
const initialQueueCap = 256

// New returns a Scheduler starting at time zero, using the min-heap queue.
func New() *Scheduler {
	return NewWithConfig(Config{})
}

// NewWithConfig returns a Scheduler starting at time zero, with the queue
// picked by cfg.PendingHint and the given instrumentation.
func NewWithConfig(cfg Config) *Scheduler {
	// PendingHint also presizes the free list so a metro-scale run
	// reaches steady state without reallocation churn.
	capHint := min(max(cfg.PendingHint, initialQueueCap), 1<<22)
	s := &Scheduler{
		free:  make([]*event, 0, capHint),
		depth: cfg.Depth,
	}
	if cfg.PendingHint >= wheelThreshold {
		s.q = newWheelQueue()
	} else {
		s.lazyQueue()
	}
	return s
}

// lazyQueue returns the scheduler's queue, initializing a heap for a
// zero-value Scheduler.
func (s *Scheduler) lazyQueue() queue {
	if s.q == nil {
		eq := make(eventQueue, 0, initialQueueCap)
		s.q = &eq
	}
	return s.q
}

// recycle returns a popped event to the free list. Bumping the
// generation first invalidates every outstanding Handle to it.
func (s *Scheduler) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	s.free = append(s.free, ev)
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far, a cheap progress and
// test metric.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued. It is an int64 so
// million-event schedules cannot truncate on 32-bit builds.
func (s *Scheduler) Pending() int64 {
	if s.q == nil {
		return 0
	}
	return s.q.size()
}

// Stats is the scheduler's counter snapshot, for run telemetry.
type Stats struct {
	// Events is the number of events executed (same as Fired).
	Events uint64 `json:"events"`
	// Scheduled is the number of events ever enqueued (seq allocations).
	Scheduled uint64 `json:"scheduled"`
	// Cancelled is the number of events removed via Handle.Cancel before
	// firing.
	Cancelled uint64 `json:"cancelled"`
	// MaxPending is the high-water mark of the event queue. int64 for the
	// same 32-bit-safety reason as Pending.
	MaxPending int64 `json:"max_pending"`
	// VirtualCycles is the current virtual clock, in CPU cycles.
	VirtualCycles uint64 `json:"virtual_cycles"`
}

// Stats returns the scheduler's counter snapshot.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Events:        s.fired,
		Scheduled:     s.seq,
		Cancelled:     s.cancelled,
		MaxPending:    s.maxPending,
		VirtualCycles: uint64(s.now),
	}
}

// Merge adds another scheduler's counters field-wise; the virtual clock
// and queue high-water mark keep the maximum (merged runs are parallel
// universes, not one longer run).
func (st *Stats) Merge(o Stats) {
	st.Events += o.Events
	st.Scheduled += o.Scheduled
	st.Cancelled += o.Cancelled
	if o.MaxPending > st.MaxPending {
		st.MaxPending = o.MaxPending
	}
	if o.VirtualCycles > st.VirtualCycles {
		st.VirtualCycles = o.VirtualCycles
	}
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (at < Now) panics: it is always a protocol bug.
func (s *Scheduler) At(at Time, fn func()) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at = at
		ev.seq = s.seq
		ev.fn = fn
	} else {
		ev = &event{at: at, seq: s.seq, fn: fn}
	}
	s.seq++
	q := s.lazyQueue()
	q.push(ev)
	n := q.size()
	if n > s.maxPending {
		s.maxPending = n
	}
	s.depth.Observe(float64(n))
	return Handle{ev: ev, s: s, gen: ev.gen}
}

// After schedules fn to run delay cycles from now.
func (s *Scheduler) After(delay Time, fn func()) Handle {
	return s.At(s.now+delay, fn)
}

// Step fires the next event, advancing the clock to its time. It reports
// whether an event was executed.
func (s *Scheduler) Step() bool {
	if s.q == nil {
		return false
	}
	for s.q.size() > 0 {
		ev := s.q.pop()
		if ev.fn == nil { // cancelled
			s.recycle(ev)
			continue
		}
		s.now = ev.at
		fn := ev.fn
		// Recycle before running fn: all fields are copied out, and fn
		// itself may schedule new events that reuse this struct.
		s.recycle(ev)
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. It returns
// ErrStopped if stopped early, nil if drained.
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with time ≤ deadline, then advances the clock
// to deadline. Events scheduled beyond deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.q != nil {
		at, ok := s.q.nextAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }
