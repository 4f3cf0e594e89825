// Package phy simulates the physical radio layer of a MICA2-class mote
// network: log-distance/bounded-error RSSI ranging, bit-level transmission
// timing, half-duplex radios, collisions, and the SPDR-register byte
// timestamps the paper's round-trip-time detector depends on (Figure 3).
//
// The paper's RTT detector works because
//
//	RTT = (t4 - t1) - (t3 - t2) = d1 + d2 + d3 + d4 + 2 D/c
//
// where t1..t4 are register-level byte timestamps and d1..d4 are small
// hardware shift delays; MAC backoff and processing delay cancel. This
// package reproduces exactly that structure: every transmission reports
// the sender-side time the first byte left the SPDR register (t1/t3
// analog) and every reception reports the receiver-side time the first
// byte was available in the register (t2/t4 analog), with per-byte
// hardware jitter drawn from a bounded distribution.
package phy

import (
	"fmt"
	"math"

	"beaconsec/internal/geo"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// Radio timing constants for a MICA2-class mote.
const (
	// BitRate is the radio bit rate (19.2 kbps).
	BitRate = 19_200
	// CyclesPerBit is the CPU-cycle cost of one bit on air; the paper
	// states "the transmission time of one bit is about 384 clock
	// cycles".
	CyclesPerBit = sim.CPUHz / BitRate
	// CyclesPerByte is the CPU-cycle cost of one byte on air.
	CyclesPerByte = 8 * CyclesPerBit
	// speedOfLightFtPerSec converts propagation distance to time.
	speedOfLightFtPerSec = 983_571_056.0
)

// Jitter models the hardware delay between the SPDR shift register and the
// air, per byte (the paper's d1..d4). Draws are uniform in [Min, Max]
// cycles: a hard-bounded distribution, because the paper's claim that the
// detector "can always detect locally replayed beacon signals between two
// benign neighbor nodes" requires the benign RTT spread to be bounded.
//
// Defaults are calibrated so the no-attack RTT spread over 10,000 trials
// is ≈ 4.5 bit-times (1,728 cycles), the figure that survives in the
// paper's text.
type Jitter struct {
	Min, Max float64
}

// DefaultJitter is the calibrated MICA2-like jitter: 4 draws sum to
// [12996, 14724] cycles, a spread of 4.5 bit-times.
func DefaultJitter() Jitter { return Jitter{Min: 3249, Max: 3681} }

func (j Jitter) draw(src *rng.Source) sim.Time {
	return sim.Time(math.Round(src.Uniform(j.Min, j.Max)))
}

// Ranging converts a true transmitter-receiver distance into the distance
// the receiver's RSSI measurement yields.
type Ranging interface {
	Measure(trueDist float64, src *rng.Source) float64
}

// BoundedUniform adds a uniform error in [-MaxError, +MaxError]; the paper
// assumes "a technique (e.g. RSSI) used to estimate the distance ... that
// has the maximum error of [10] feet", which is exactly this model.
type BoundedUniform struct {
	MaxError float64
}

// Measure implements Ranging.
func (b BoundedUniform) Measure(trueDist float64, src *rng.Source) float64 {
	d := trueDist + src.Uniform(-b.MaxError, b.MaxError)
	if d < 0 {
		d = 0
	}
	return d
}

// TruncatedGaussian adds N(0, Sigma) error truncated to ±MaxError,
// modelling RSSI ranging with log-normal shadowing whose outliers are
// rejected by averaging multiple samples.
type TruncatedGaussian struct {
	Sigma    float64
	MaxError float64
}

// Measure implements Ranging.
func (g TruncatedGaussian) Measure(trueDist float64, src *rng.Source) float64 {
	e := g.Sigma * src.NormFloat64()
	if e > g.MaxError {
		e = g.MaxError
	}
	if e < -g.MaxError {
		e = -g.MaxError
	}
	d := trueDist + e
	if d < 0 {
		d = 0
	}
	return d
}

// Perfect is error-free ranging, for tests and theoretical baselines.
type Perfect struct{}

// Measure implements Ranging.
func (Perfect) Measure(trueDist float64, _ *rng.Source) float64 { return trueDist }

// Interface compliance.
var (
	_ Ranging = BoundedUniform{}
	_ Ranging = TruncatedGaussian{}
	_ Ranging = Perfect{}
)

// Frame is one unit of air traffic: raw bytes plus attacker-controlled
// physical metadata. Protocol logic never reads the metadata; it only
// influences what the receiver's instruments (ranging, wormhole detector)
// observe.
type Frame struct {
	// Data is the encoded packet.
	Data []byte
	// RangeBias shifts the distance the receiver's ranging measures,
	// modelling transmit-power manipulation by a malicious sender.
	// Benign senders use 0.
	RangeBias float64
	// WormholeMark models a sender manipulating its signal so the
	// receiver's wormhole detector fires ("a malicious target node can
	// always manipulate its beacon signals to convince the detecting
	// node that there is a wormhole attack").
	WormholeMark bool
	// Replayed marks frames re-injected by a wormhole tunnel or replay
	// attacker. It is ground truth for the probabilistic wormhole
	// detector, not a bit a protocol participant can read.
	Replayed bool
	// Finalize, if non-nil, rebuilds Data at transmit time given the
	// transmission's own first-byte register timestamp. It models a
	// timestamp field written into a later byte of the packet while the
	// first bytes are already on air (how the paper's reply carries
	// t3 - t2). The rebuilt data must have the same length as Data.
	Finalize func(firstByteSPDR sim.Time) []byte
}

// TxInfo reports the timing of a transmission to the sender.
type TxInfo struct {
	// AirStart/AirEnd bound the frame's time on air.
	AirStart, AirEnd sim.Time
	// FirstByteSPDR is the sender-side register timestamp of the first
	// byte (the paper's t1 for requests, t3 for replies).
	FirstByteSPDR sim.Time
}

// Reception is what a radio's handler receives for an uncorrupted frame.
type Reception struct {
	Frame Frame
	// MeasuredDist is the RSSI-derived distance to the actual transmit
	// origin, including any attacker bias and the ranging error.
	MeasuredDist float64
	// FirstByteSPDR is the receiver-side register timestamp of the first
	// byte (the paper's t2 for requests, t4 for replies).
	FirstByteSPDR sim.Time
	// End is when the frame finished arriving.
	End sim.Time
}

// Handler consumes receptions.
type Handler func(Reception)

// Tap observes every transmission on the medium (attack tooling: wormhole
// tunnels, replay attackers). origin is the true injection point.
type Tap func(origin geo.Point, f Frame, info TxInfo)

type interval struct {
	start, end sim.Time
}

func overlaps(a, b interval) bool { return a.start < b.end && b.start < a.end }

type arrival struct {
	span      interval
	corrupted bool
}

// Radio is one node's transceiver at a fixed position.
type Radio struct {
	pos     geo.Point
	medium  *Medium
	handler Handler
	// nbrs lists, in ascending index, every other radio within range:
	// the receivers of this radio's transmissions. Radios never move, so
	// it is built once, on the first Transmit (nbrsBuilt), and extended
	// only by NewRadio.
	nbrs      []int32
	nbrsBuilt bool
	// inflight arrivals, for collision marking.
	inflight []*arrival
	// tx intervals for half-duplex suppression, pruned lazily.
	tx []interval
}

// Pos returns the radio's true position.
func (r *Radio) Pos() geo.Point { return r.pos }

// Medium returns the medium the radio is attached to.
func (r *Radio) Medium() *Medium { return r.medium }

// SetHandler installs the reception callback. A nil handler drops frames.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

func (r *Radio) pruneTx(now sim.Time) {
	keep := r.tx[:0]
	for _, iv := range r.tx {
		if iv.end > now {
			keep = append(keep, iv)
		}
	}
	r.tx = keep
}

func (r *Radio) transmittingDuring(span interval) bool {
	for _, iv := range r.tx {
		if overlaps(iv, span) {
			return true
		}
	}
	return false
}

// Stats counts medium-level events, for tests and experiment reporting.
type Stats struct {
	Transmissions uint64
	Deliveries    uint64
	Collisions    uint64
	HalfDuplex    uint64
	// Injections counts radio-less launches (wormhole tunnel exits and
	// replay attackers): attack traffic, a subset of Transmissions.
	Injections uint64
	// BytesOnAir is the total frame bytes transmitted.
	BytesOnAir uint64
}

// Merge adds another medium's counters field-wise (used by the scenario
// layer to aggregate metrics deterministically across runs).
func (s *Stats) Merge(o Stats) {
	s.Transmissions += o.Transmissions
	s.Deliveries += o.Deliveries
	s.Collisions += o.Collisions
	s.HalfDuplex += o.HalfDuplex
	s.Injections += o.Injections
	s.BytesOnAir += o.BytesOnAir
}

// Config parameterizes a Medium.
type Config struct {
	// Range is the maximum communication range in feet.
	Range float64
	// Ranging is the distance-measurement model; nil means Perfect.
	Ranging Ranging
	// Jitter is the SPDR hardware-delay model; the zero value selects
	// DefaultJitter.
	Jitter Jitter
	// BruteForce forces transmissions to resolve receivers with the
	// historical O(N) scan over all radios instead of the neighbour
	// tables and the spatial grid. The paths are defined to be
	// byte-identical (same receivers, same visit order, same rng draws);
	// this switch exists so tests and benchmarks can pin that
	// equivalence. Production callers leave it false.
	BruteForce bool
}

// Medium is the shared radio channel. It is bound to one sim.Scheduler and
// is not safe for concurrent use (the simulation is single-threaded).
type Medium struct {
	sched   *sim.Scheduler
	src     *rng.Source
	cfg     Config
	radios  []*Radio
	grid    *geo.Grid // spatial index over radio positions; cell = Range
	scratch []int32   // reusable candidate buffer for grid queries
	builds  int       // neighbour tables built; each radio's at most once
	taps    []Tap
	stats   Stats
	// pendFree recycles pending-delivery records (and their pre-bound
	// fire closures) so steady-state delivery allocates nothing.
	pendFree []*pending
}

// NewMedium creates a medium over the given scheduler. src must be a
// dedicated stream (the medium consumes it for jitter and ranging error).
func NewMedium(sched *sim.Scheduler, src *rng.Source, cfg Config) *Medium {
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("phy: non-positive range %v", cfg.Range))
	}
	if cfg.Ranging == nil {
		cfg.Ranging = Perfect{}
	}
	if cfg.Jitter == (Jitter{}) {
		cfg.Jitter = DefaultJitter()
	}
	return &Medium{sched: sched, src: src, cfg: cfg, grid: geo.NewGrid(cfg.Range)}
}

// Range returns the configured communication range.
func (m *Medium) Range() float64 { return m.cfg.Range }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// NewRadio registers a radio at pos. Its index is the largest so far,
// so appending it to every built neighbour table within range keeps
// those tables in ascending order.
func (m *Medium) NewRadio(pos geo.Point) *Radio {
	r := &Radio{pos: pos, medium: m}
	idx := int32(len(m.radios))
	m.scratch = m.grid.Candidates(pos, m.cfg.Range, m.scratch[:0])
	for _, ri := range m.scratch {
		o := m.radios[ri]
		if !o.nbrsBuilt || o.pos.Dist(pos) > m.cfg.Range {
			continue
		}
		o.nbrs = append(o.nbrs, idx)
	}
	m.radios = append(m.radios, r)
	m.grid.Add(pos) // grid index == position in m.radios
	return r
}

// neighbours returns r's neighbour table, building it on first use from
// the grid candidates and the brute-force scan's own in-range predicate,
// so the table holds exactly the receivers that scan would visit, in
// its order.
func (m *Medium) neighbours(r *Radio) []int32 {
	if r.nbrsBuilt {
		return r.nbrs
	}
	m.scratch = m.grid.Candidates(r.pos, m.cfg.Range, m.scratch[:0])
	in := m.scratch[:0]
	for _, ri := range m.scratch {
		rx := m.radios[ri]
		if rx == r || r.pos.Dist(rx.pos) > m.cfg.Range {
			continue
		}
		in = append(in, ri)
	}
	r.nbrs = make([]int32, len(in))
	copy(r.nbrs, in)
	r.nbrsBuilt = true
	m.builds++
	return r.nbrs
}

// AddTap registers an attack-tooling tap invoked for every transmission.
func (m *Medium) AddTap(t Tap) { m.taps = append(m.taps, t) }

// FrameAirTime returns the on-air duration of n bytes.
func FrameAirTime(n int) sim.Time { return sim.Time(n) * CyclesPerByte }

func propagation(dist float64) sim.Time {
	return sim.Time(math.Round(dist / speedOfLightFtPerSec * sim.CPUHz))
}

// Busy reports whether r senses carrier: some transmission is on air
// within range of r right now. Used by the MAC for CSMA.
func (m *Medium) Busy(r *Radio) bool {
	now := m.sched.Now()
	// Every transmission in range of r has already been resolved into an
	// arrival at r, so carrier is r's own inflight arrivals plus its own
	// tx state.
	for _, a := range r.inflight {
		if a.span.start <= now && now < a.span.end {
			return true
		}
	}
	r.pruneTx(now)
	return len(r.tx) > 0
}

// Transmit puts f on air from radio r, returning its timing. The sender
// becomes half-duplex busy for the duration.
func (m *Medium) Transmit(r *Radio, f Frame) TxInfo {
	now := m.sched.Now()
	r.pruneTx(now)
	info := m.launch(r.pos, r, f)
	r.tx = append(r.tx, interval{info.AirStart, info.AirEnd})
	// Transmitting corrupts anything the sender was receiving.
	for _, a := range r.inflight {
		if overlaps(a.span, interval{info.AirStart, info.AirEnd}) {
			if !a.corrupted {
				a.corrupted = true
				m.stats.HalfDuplex++
			}
		}
	}
	return info
}

// Inject puts f on air from an arbitrary point, with no sending radio:
// wormhole tunnel exits and replay attackers use this.
func (m *Medium) Inject(origin geo.Point, f Frame) TxInfo {
	return m.launch(origin, nil, f)
}

func (m *Medium) launch(origin geo.Point, sender *Radio, f Frame) TxInfo {
	if len(f.Data) == 0 {
		panic("phy: transmitting empty frame")
	}
	start := m.sched.Now()
	end := start + FrameAirTime(len(f.Data))
	// t1/t3: the first byte leaves the register d_out cycles before it
	// finishes on air (the register is loaded ahead of the air clock, so
	// this may precede AirStart). Clamped at time zero, which can only
	// matter for transmissions in the first few thousand cycles of a run.
	firstOut := start + CyclesPerByte
	if d := m.cfg.Jitter.draw(m.src); d < firstOut {
		firstOut -= d
	} else {
		firstOut = 0
	}
	info := TxInfo{
		AirStart:      start,
		AirEnd:        end,
		FirstByteSPDR: firstOut,
	}
	if f.Finalize != nil {
		final := f.Finalize(info.FirstByteSPDR)
		if len(final) != len(f.Data) {
			panic(fmt.Sprintf("phy: Finalize changed frame size %d -> %d", len(f.Data), len(final)))
		}
		f.Data = final
		f.Finalize = nil
	}
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(len(f.Data))
	if sender == nil {
		m.stats.Injections++
	}
	switch {
	case m.cfg.BruteForce:
		for _, rx := range m.radios {
			if rx == sender {
				continue
			}
			trueDist := origin.Dist(rx.pos)
			if trueDist > m.cfg.Range {
				continue
			}
			m.deliver(rx, origin, trueDist, f, info)
		}
	case sender != nil:
		// The table is in ascending radio index, the order the
		// brute-force scan visits, and delivery uses the same distance
		// float, so the rng draw order is the O(N) path's.
		for _, ri := range m.neighbours(sender) {
			rx := m.radios[ri]
			m.deliver(rx, origin, origin.Dist(rx.pos), f, info)
		}
	default:
		// Candidates come back in ascending radio index — registration
		// order, i.e. exactly the order the brute-force scan visits —
		// and the in-range predicate below is the scan's own, so the
		// delivery sequence (and with it the medium's rng draw order)
		// is byte-identical to the O(N) path.
		m.scratch = m.grid.Candidates(origin, m.cfg.Range, m.scratch[:0])
		for _, ri := range m.scratch {
			rx := m.radios[ri]
			trueDist := origin.Dist(rx.pos)
			if trueDist > m.cfg.Range {
				continue
			}
			m.deliver(rx, origin, trueDist, f, info)
		}
	}
	for _, t := range m.taps {
		t(origin, f, info)
	}
	return info
}

// pending is one in-flight delivery: the arrival record plus everything
// the reception callback needs. Records are pooled on the medium, and
// fire is bound to deliverNow exactly once (at pool-entry creation), so
// a steady-state delivery schedules with zero heap allocations.
type pending struct {
	m         *Medium
	rx        *Radio
	arr       arrival
	frame     Frame
	measured  float64
	firstByte sim.Time
	end       sim.Time
	fire      func()
}

func (m *Medium) getPending() *pending {
	if n := len(m.pendFree); n > 0 {
		p := m.pendFree[n-1]
		m.pendFree[n-1] = nil
		m.pendFree = m.pendFree[:n-1]
		return p
	}
	p := &pending{m: m}
	p.fire = p.deliverNow
	return p
}

func (m *Medium) deliver(rx *Radio, origin geo.Point, trueDist float64, f Frame, info TxInfo) {
	prop := propagation(trueDist)
	span := interval{info.AirStart + prop, info.AirEnd + prop}
	p := m.getPending()
	p.rx = rx
	p.arr = arrival{span: span}
	a := &p.arr
	// Collision: overlapping arrivals corrupt each other ("node B either
	// receives the original signal or receives nothing in case of
	// collision").
	for _, other := range rx.inflight {
		if overlaps(other.span, span) {
			if !other.corrupted {
				other.corrupted = true
			}
			a.corrupted = true
			m.stats.Collisions++
		}
	}
	// Half-duplex: a receiver that is transmitting misses the frame.
	rx.pruneTx(m.sched.Now())
	if rx.transmittingDuring(span) {
		a.corrupted = true
		m.stats.HalfDuplex++
	}
	rx.inflight = append(rx.inflight, a)

	// t2/t4: first byte available in the receiving register one
	// byte-time plus propagation plus hardware delay after air start.
	p.frame = f
	p.firstByte = info.AirStart + CyclesPerByte + prop + m.cfg.Jitter.draw(m.src)
	p.measured = m.cfg.Ranging.Measure(trueDist+f.RangeBias, m.src)
	p.end = span.end

	m.sched.At(span.end, p.fire)
}

// deliverNow completes one arrival: it unhooks the arrival record,
// returns the pending record to the pool (the Reception is copied out
// first, so the handler may transmit and reuse it immediately), and
// hands uncorrupted frames to the receiver.
func (p *pending) deliverNow() {
	m, rx := p.m, p.rx
	rec := Reception{
		Frame:         p.frame,
		MeasuredDist:  p.measured,
		FirstByteSPDR: p.firstByte,
		End:           p.end,
	}
	corrupted := p.arr.corrupted
	rx.removeInflight(&p.arr)
	p.rx = nil
	p.frame = Frame{} // drop the Data reference while pooled
	m.pendFree = append(m.pendFree, p)
	if corrupted || rx.handler == nil {
		return
	}
	m.stats.Deliveries++
	rx.handler(rec)
}

func (r *Radio) removeInflight(target *arrival) {
	for i, a := range r.inflight {
		if a == target {
			last := len(r.inflight) - 1
			r.inflight[i] = r.inflight[last]
			r.inflight[last] = nil
			r.inflight = r.inflight[:last]
			return
		}
	}
}
