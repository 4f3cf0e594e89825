package scenario

import (
	"beaconsec/internal/core"
	"beaconsec/internal/mac"
	"beaconsec/internal/metrics"
	"beaconsec/internal/node"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/sim"
)

// FilterMetrics counts detector-pipeline outcomes across the deployment,
// split by role: detecting beacon nodes run the full §2.1–2.2 pipeline,
// sensors only the replay filters. LocalReplay counts are RTT-filter
// hits, WormholeReplay counts are wormhole-filter hits.
type FilterMetrics struct {
	DetectorBenign         uint64 `json:"detector_benign"`
	DetectorMalicious      uint64 `json:"detector_malicious"`
	DetectorWormholeReplay uint64 `json:"detector_wormhole_replay"`
	DetectorLocalReplay    uint64 `json:"detector_local_replay"`
	SensorAccepted         uint64 `json:"sensor_accepted"`
	SensorWormholeReplay   uint64 `json:"sensor_wormhole_replay"`
	SensorLocalReplay      uint64 `json:"sensor_local_replay"`
}

// Merge adds another run's counters field-wise.
func (f *FilterMetrics) Merge(o FilterMetrics) {
	f.DetectorBenign += o.DetectorBenign
	f.DetectorMalicious += o.DetectorMalicious
	f.DetectorWormholeReplay += o.DetectorWormholeReplay
	f.DetectorLocalReplay += o.DetectorLocalReplay
	f.SensorAccepted += o.SensorAccepted
	f.SensorWormholeReplay += o.SensorWormholeReplay
	f.SensorLocalReplay += o.SensorLocalReplay
}

// RevocationMetrics groups the base station's outcome counters with the
// uplink's delivery counters.
type RevocationMetrics struct {
	Base   revoke.Stats       `json:"base_station"`
	Uplink revoke.UplinkStats `json:"uplink"`
}

// Merge adds another run's counters field-wise.
func (r *RevocationMetrics) Merge(o RevocationMetrics) {
	r.Base.Merge(o.Base)
	r.Uplink.Merge(o.Uplink)
}

// Metrics is one run's deterministic instrumentation snapshot: every
// field derives from the seeded simulation alone (no wall-clock time), so
// aggregates merged in grid order are identical for any worker count.
type Metrics struct {
	// Runs is the number of simulation runs folded into this snapshot.
	Runs int `json:"runs"`
	// Sim is the event-scheduler snapshot. The radio schedules one event
	// per distinct arrival instant of a frame (one or two at the paper's
	// range), not one per receiver, so Sim counts arrival instants and
	// timers; Radio.Deliveries counts receptions.
	Sim sim.Stats `json:"sim"`
	// Radio is the shared medium's counters.
	Radio phy.Stats `json:"radio"`
	// Link sums the link-layer counters over every node.
	Link mac.Stats `json:"link"`
	// Probes sums the request/reply exchange counters over every
	// requester (detecting beacons and sensors).
	Probes node.ProbeStats `json:"probes"`
	// Filters counts detector-pipeline outcomes.
	Filters FilterMetrics `json:"filters"`
	// Detectors splits the filter counters by detector identity
	// (Result.Detector's canonical string). A single run contributes one
	// key; merged bake-off aggregates carry one entry per detector, so
	// verdict-mix comparisons across detectors need no re-runs.
	Detectors map[string]FilterMetrics `json:"detectors,omitempty"`
	// Revocation counts base-station and uplink activity.
	Revocation RevocationMetrics `json:"revocation"`
	// QueueDepth is the scheduler's standing event population: the queue
	// size observed after every schedule, where a frame in flight holds
	// one event per arrival instant. Identical for the wheel and heap
	// queues (both fire the same event sequence), so it merges across
	// queue choices.
	QueueDepth *metrics.Histogram `json:"queue_depth,omitempty"`
	// Phases is the per-phase breakdown (announce/collude/detect/
	// localize/drain) in virtual time. A phase's Events counts scheduler
	// events, so a frame's deliveries count once per arrival instant.
	Phases []metrics.Span `json:"phases,omitempty"`
}

// Merge folds another run's metrics into m. Counters add; phase spans
// merge positionally (panicking on mismatched phase structure, which
// would mean the runs used different lifecycles).
func (m *Metrics) Merge(o Metrics) {
	m.Runs += o.Runs
	m.Sim.Merge(o.Sim)
	m.Radio.Merge(o.Radio)
	m.Link.Merge(o.Link)
	m.Probes.Merge(o.Probes)
	m.Filters.Merge(o.Filters)
	for det, f := range o.Detectors {
		if m.Detectors == nil {
			m.Detectors = make(map[string]FilterMetrics)
		}
		acc := m.Detectors[det]
		acc.Merge(f)
		m.Detectors[det] = acc
	}
	m.Revocation.Merge(o.Revocation)
	if m.QueueDepth == nil {
		m.QueueDepth = o.QueueDepth.Clone()
	} else {
		m.QueueDepth.Merge(o.QueueDepth)
	}
	m.Phases = metrics.MergeSpans(m.Phases, o.Phases)
}

// addVerdicts folds a node's verdict map into the detector- or
// sensor-side filter counters. Map iteration order does not matter: each
// verdict feeds exactly one counter.
func (f *FilterMetrics) addVerdicts(verdicts map[core.Verdict]int, sensorSide bool) {
	for v, n := range verdicts {
		c := uint64(n)
		switch {
		case !sensorSide && v == core.VerdictBenign:
			f.DetectorBenign += c
		case !sensorSide && v == core.VerdictMalicious:
			f.DetectorMalicious += c
		case !sensorSide && v == core.VerdictWormholeReplay:
			f.DetectorWormholeReplay += c
		case !sensorSide && v == core.VerdictLocalReplay:
			f.DetectorLocalReplay += c
		case sensorSide && v == core.VerdictBenign:
			f.SensorAccepted += c
		case sensorSide && v == core.VerdictWormholeReplay:
			f.SensorWormholeReplay += c
		case sensorSide && v == core.VerdictLocalReplay:
			f.SensorLocalReplay += c
		}
	}
}

// collectInstrumentation assembles the run's Metrics snapshot after the
// scheduler has drained.
func (r *Result) collectInstrumentation(sched *sim.Scheduler, medium *phy.Medium,
	uplink *revoke.Uplink, spans []metrics.Span, depth *metrics.Histogram) {
	m := Metrics{
		Runs:       1,
		Sim:        sched.Stats(),
		Radio:      medium.Stats(),
		QueueDepth: depth,
		Phases:     spans,
		Revocation: RevocationMetrics{
			Base:   r.bs.Stats(),
			Uplink: uplink.Stats(),
		},
	}
	for _, b := range r.beacons {
		m.Link.Merge(b.LinkStats())
		m.Probes.Merge(b.ProbeStats())
		m.Filters.addVerdicts(b.Verdicts, false)
	}
	for _, mal := range r.malicious {
		m.Link.Merge(mal.LinkStats())
	}
	for _, s := range r.sensors {
		m.Link.Merge(s.LinkStats())
		m.Probes.Merge(s.ProbeStats())
		m.Filters.addVerdicts(s.Verdicts, true)
	}
	m.Detectors = map[string]FilterMetrics{r.Detector: m.Filters}
	r.Metrics = m
}
