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
	"slices"

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
// the receiver's RSSI measurement yields. A measurement is split in two:
// Error draws the distance-independent error, at reception time, and
// Apply combines it with the true distance, whenever the measurement is
// read. For every model, Apply(d, Error(src)) is the measurement made in
// one step: the same draws from src and the same float expression.
type Ranging interface {
	Error(src *rng.Source) float64
	Apply(trueDist, err float64) float64
}

// BoundedUniform adds a uniform error in [-MaxError, +MaxError]; the paper
// assumes "a technique (e.g. RSSI) used to estimate the distance ... that
// has the maximum error of [10] feet", which is exactly this model.
type BoundedUniform struct {
	MaxError float64
}

// Error implements Ranging.
func (b BoundedUniform) Error(src *rng.Source) float64 {
	return src.Uniform(-b.MaxError, b.MaxError)
}

// Apply implements Ranging; measurements clamp at 0.
func (BoundedUniform) Apply(trueDist, err float64) float64 { return clampedSum(trueDist, err) }

// TruncatedGaussian adds N(0, Sigma) error truncated to ±MaxError,
// modelling RSSI ranging with log-normal shadowing whose outliers are
// rejected by averaging multiple samples.
type TruncatedGaussian struct {
	Sigma    float64
	MaxError float64
}

// Error implements Ranging.
func (g TruncatedGaussian) Error(src *rng.Source) float64 {
	e := g.Sigma * src.NormFloat64()
	if e > g.MaxError {
		e = g.MaxError
	}
	if e < -g.MaxError {
		e = -g.MaxError
	}
	return e
}

// Apply implements Ranging; measurements clamp at 0.
func (TruncatedGaussian) Apply(trueDist, err float64) float64 { return clampedSum(trueDist, err) }

func clampedSum(trueDist, err float64) float64 {
	d := trueDist + err
	if d < 0 {
		d = 0
	}
	return d
}

// Perfect is error-free ranging, for tests and theoretical baselines. It
// draws nothing and does not clamp: a bias below -trueDist measures
// negative.
type Perfect struct{}

// Error implements Ranging.
func (Perfect) Error(*rng.Source) float64 { return 0 }

// Apply implements Ranging.
func (Perfect) Apply(trueDist, _ float64) float64 { return trueDist }

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

// Reception is what a radio's handler receives for an uncorrupted frame:
// a small handle into the medium's pooled delivery records. It is valid
// only during the handler call; the records are reused once the
// frame's last arrival instant has fired, so a handler that needs a
// value later copies it out. Frame is shared by every receiver of the
// launch and must not be modified.
type Reception struct {
	Frame *Frame
	fo    *fanout
	d     *delivery
}

// MeasuredDist is the RSSI-derived distance to the actual transmit
// origin, including any attacker bias and the ranging error. The error
// was drawn at delivery; the exact distance is computed here, on read,
// because most receivers discard the frame without looking.
func (r Reception) MeasuredDist() float64 {
	return r.fo.m.cfg.Ranging.Apply(r.fo.origin.Dist(r.d.rx.pos)+r.Frame.RangeBias, r.d.rangeErr)
}

// FirstByteSPDR is the receiver-side register timestamp of the first
// byte (the paper's t2 for requests, t4 for replies).
func (r Reception) FirstByteSPDR() sim.Time { return r.d.firstByte }

// End is when the frame finished arriving.
func (r Reception) End() sim.Time { return r.d.arr.span.end }

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

// link is one receiver of a fixed launch point: the receiving radio's
// index and the propagation delay over their exact distance, both
// fixed for the whole run.
type link struct {
	rx   int32
	prop uint32
}

// links is the receiver table of a fixed launch point: every radio within
// range of pos, less the sending radio itself, in ascending index. Radios
// never move, so it is built once, on the point's first launch (built),
// and extended only by NewRadio.
type links struct {
	pos   geo.Point
	tab   []link
	built bool
}

// extend appends radio idx at rxPos if it is in range of l's launch
// point. Only NewRadio calls it, with the largest index so far, so the
// table stays ascending.
func (l *links) extend(rxPos geo.Point, idx int32, rangeFt float64) {
	if l.built {
		l.tab = appendLink(l.tab, l.pos, rxPos, idx, rangeFt)
	}
}

// Radio is one node's transceiver at a fixed position.
type Radio struct {
	links   // pos, and the receivers of this radio's transmissions
	medium  *Medium
	handler Handler
	// inflight arrivals, for collision marking.
	inflight []*arrival
	// tx intervals for half-duplex suppression, pruned lazily.
	tx []interval
}

// Emitter is a fixed radio-less injection point: a wormhole tunnel exit
// or a replay attacker. It has no receiver and no half-duplex state, only
// a receiver table, kept like a radio's.
type Emitter struct {
	links
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
	// BruteForce forces launches to resolve receivers with the
	// historical O(N) scan over all radios, computing each distance and
	// propagation delay on the spot, instead of the link tables. The paths
	// are defined to be byte-identical (same receivers, same visit order,
	// same delays, same rng draws); this switch exists so tests and
	// benchmarks can pin that equivalence. Production callers leave it
	// false.
	BruteForce bool
}

// Medium is the shared radio channel. It is bound to one sim.Scheduler and
// is not safe for concurrent use (the simulation is single-threaded).
type Medium struct {
	sched    *sim.Scheduler
	src      *rng.Source
	cfg      Config
	radios   []*Radio
	emitters []*Emitter
	grid     *geo.Grid // spatial index over radio positions; cell = Range
	scratch  []int32   // reusable buffer for grid candidates
	linkBuf  []link    // reusable buffer for table builds and scans
	builds   int       // link tables built; each launch point's at most once
	taps     []Tap
	stats    Stats
	// fanFree recycles fanout records (and their pre-bound fire
	// closures) so steady-state delivery allocates nothing.
	fanFree []*fanout
}

// NewMedium creates a medium over the given scheduler. src must be a
// dedicated stream (the medium consumes it for jitter and ranging error).
func NewMedium(sched *sim.Scheduler, src *rng.Source, cfg Config) *Medium {
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("phy: non-positive range %v", cfg.Range))
	}
	if propagation(cfg.Range) > math.MaxUint32 {
		panic(fmt.Sprintf("phy: range %v ft overflows a link's propagation delay", cfg.Range))
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
// so appending it to every built link table within range, radios' and
// emitters' alike, keeps those tables in ascending order.
func (m *Medium) NewRadio(pos geo.Point) *Radio {
	r := &Radio{links: links{pos: pos}, medium: m}
	idx := int32(len(m.radios))
	// Deployments register every radio before the first launch, when
	// there is no table to extend.
	if m.builds > 0 {
		m.scratch = m.grid.Candidates(pos, m.cfg.Range, m.scratch[:0])
		for _, ri := range m.scratch {
			m.radios[ri].extend(pos, idx, m.cfg.Range)
		}
		for _, e := range m.emitters {
			e.extend(pos, idx, m.cfg.Range)
		}
	}
	m.radios = append(m.radios, r)
	m.grid.Add(pos) // grid index == position in m.radios
	return r
}

// NewEmitter registers a fixed injection point at pos. Its link table is
// built on its first Inject and extended by later NewRadio calls, as a
// radio's is.
func (m *Medium) NewEmitter(pos geo.Point) *Emitter {
	e := &Emitter{links{pos: pos}}
	m.emitters = append(m.emitters, e)
	return e
}

// table returns the link table of launch point l, building it on first
// use from the grid's candidates around l.pos, less the sending radio
// self (nil for an emitter). Candidates come back in ascending radio
// index and the in-range predicate is the scan's own, so the table holds
// exactly the links the brute-force scan would produce, in its order.
func (m *Medium) table(l *links, self *Radio) []link {
	if l.built {
		return l.tab
	}
	m.scratch = m.grid.Candidates(l.pos, m.cfg.Range, m.scratch[:0])
	buf := m.linkBuf[:0]
	for _, ri := range m.scratch {
		if rx := m.radios[ri]; rx != self {
			buf = appendLink(buf, l.pos, rx.pos, ri, m.cfg.Range)
		}
	}
	m.linkBuf = buf
	l.tab = append(make([]link, 0, len(buf)), buf...)
	l.built = true
	m.builds++
	return l.tab
}

// scan is the brute-force receiver resolution: every radio but the
// sender within range of origin, in ascending index.
func (m *Medium) scan(origin geo.Point, sender *Radio) []link {
	buf := m.linkBuf[:0]
	for i, rx := range m.radios {
		if rx != sender {
			buf = appendLink(buf, origin, rx.pos, int32(i), m.cfg.Range)
		}
	}
	m.linkBuf = buf
	return buf
}

// appendLink appends the link from origin to radio idx at rxPos if it
// is within range. Every resolution path decides range and delay here,
// from the same exact distance.
func appendLink(tab []link, origin, rxPos geo.Point, idx int32, rangeFt float64) []link {
	d := origin.Dist(rxPos)
	if d > rangeFt {
		return tab
	}
	return append(tab, link{rx: idx, prop: uint32(propagation(d))})
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
	info := m.launch(&r.links, r, f)
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

// Inject puts f on air from emitter e, with no sending radio: wormhole
// tunnel exits and replay attackers use this.
func (m *Medium) Inject(e *Emitter, f Frame) TxInfo {
	return m.launch(&e.links, nil, f)
}

// launch puts f on air from launch point from, sent by radio sender (nil
// for an emitter).
func (m *Medium) launch(from *links, sender *Radio, f Frame) TxInfo {
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
	var rxs []link
	if m.cfg.BruteForce {
		rxs = m.scan(from.pos, sender)
	} else {
		rxs = m.table(from, sender)
	}
	// Both paths list their links in ascending radio index with delays
	// from the same distance float, so the delivery sequence, and with it
	// the medium's rng draw order, is the O(N) scan's.
	fo := m.getFanout()
	fo.frame = f
	fo.origin = from.pos
	// Sized before the walk so the arrival records deliver links into
	// receivers' inflight lists never move.
	if cap(fo.rx) < len(rxs) {
		fo.rx = make([]delivery, 0, len(rxs))
	}
	// One event per distinct arrival instant. Nothing else schedules
	// during a launch, so no other event falls between its receivers in
	// (at, seq) order (DESIGN.md §9).
	var buf [4]sim.Time // two instants at the paper's range
	ends := buf[:0]
	for _, l := range rxs {
		end := m.deliver(fo, l, info)
		if !slices.Contains(ends, end) {
			ends = append(ends, end)
			m.sched.At(end, fo.fire)
		}
	}
	fo.instants = len(ends)
	if fo.instants == 0 {
		m.putFanout(fo)
	}
	for _, t := range m.taps {
		t(from.pos, f, info)
	}
	return info
}

// fanout is one launch's receivers, in ascending radio index, plus the
// frame they all receive. It fires one scheduler event per distinct
// arrival instant; each event walks the receivers arriving at that
// instant. Records are pooled on the medium, and fire is bound to
// deliverNow once, when the record is created, so a steady-state launch
// allocates nothing.
type fanout struct {
	m      *Medium
	frame  Frame
	origin geo.Point // the launch point, for MeasuredDist
	rx     []delivery
	// instants counts the arrival-instant events still to fire; the last
	// one returns the record to the pool.
	instants int
	fire     func()
}

// delivery is one receiver's share of a fanout: its arrival record
// (linked into rx.inflight for collision, half-duplex and Busy checks),
// its own register timestamp, and the ranging error drawn for it.
type delivery struct {
	rx        *Radio
	arr       arrival
	rangeErr  float64
	firstByte sim.Time
}

func (m *Medium) getFanout() *fanout {
	if n := len(m.fanFree); n > 0 {
		fo := m.fanFree[n-1]
		m.fanFree[n-1] = nil
		m.fanFree = m.fanFree[:n-1]
		return fo
	}
	fo := &fanout{m: m}
	fo.fire = fo.deliverNow
	return fo
}

func (m *Medium) putFanout(fo *fanout) {
	fo.frame = Frame{} // drop the Data reference while pooled
	fo.rx = fo.rx[:0]
	m.fanFree = append(m.fanFree, fo)
}

// deliver resolves the arrival of the launch over link l: collision and
// half-duplex marking against what the receiver already has in flight,
// then the jitter and ranging-error draws, in that order. It returns the
// arrival instant.
func (m *Medium) deliver(fo *fanout, l link, info TxInfo) sim.Time {
	rx := m.radios[l.rx]
	prop := sim.Time(l.prop)
	span := interval{info.AirStart + prop, info.AirEnd + prop}
	corrupted := false
	// Collision: overlapping arrivals corrupt each other ("node B either
	// receives the original signal or receives nothing in case of
	// collision").
	for _, other := range rx.inflight {
		if overlaps(other.span, span) {
			other.corrupted = true
			corrupted = true
			m.stats.Collisions++
		}
	}
	// Half-duplex: a receiver that is transmitting misses the frame. An
	// interval that ended by now cannot overlap a span starting at or
	// after now, so rx.tx needs no pruning here; Transmit and Busy prune.
	if rx.transmittingDuring(span) {
		corrupted = true
		m.stats.HalfDuplex++
	}
	// t2/t4: first byte available in the receiving register one
	// byte-time plus propagation plus hardware delay after air start.
	firstByte := info.AirStart + CyclesPerByte + prop + m.cfg.Jitter.draw(m.src)
	rangeErr := m.cfg.Ranging.Error(m.src)
	// launch gave fo.rx room for every receiver, so &d.arr never moves.
	fo.rx = fo.rx[:len(fo.rx)+1]
	d := &fo.rx[len(fo.rx)-1]
	d.rx = rx
	d.arr = arrival{span: span, corrupted: corrupted}
	d.rangeErr = rangeErr
	d.firstByte = firstByte
	rx.inflight = append(rx.inflight, &d.arr)
	return span.end
}

// deliverNow fires one arrival instant of a fanout. It walks the
// receivers arriving now in ascending radio index, reading each
// arrival's corrupted flag and unhooking it at that receiver's turn,
// then handing uncorrupted frames to the handler. A handler that
// transmits here only adds arrivals that start at or after now, so it
// cannot corrupt the later receivers of this instant.
func (fo *fanout) deliverNow() {
	m := fo.m
	now := m.sched.Now()
	for i := range fo.rx {
		d := &fo.rx[i]
		if d.arr.span.end != now {
			continue
		}
		rx, corrupted := d.rx, d.arr.corrupted
		rx.removeInflight(&d.arr)
		if corrupted || rx.handler == nil {
			continue
		}
		m.stats.Deliveries++
		rx.handler(Reception{Frame: &fo.frame, fo: fo, d: d})
	}
	fo.instants--
	if fo.instants == 0 {
		m.putFanout(fo)
	}
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
