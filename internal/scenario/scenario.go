// Package scenario wires the full system — deployment, radio medium,
// crypto, node state machines, wormhole tunnels, base station — into one
// reproducible end-to-end simulation run, and extracts the metrics the
// paper's §4 evaluation reports: revocation detection rate, false-positive
// rate, affected non-beacon nodes, and localization error.
//
// A run's phases mirror the paper's protocol lifecycle:
//
//	announce    beacon nodes broadcast hellos (twice, for loss robustness)
//	collude     malicious beacons flood alerts against benign ones
//	detect      beacon nodes probe neighbor beacons under detecting IDs;
//	            alerts stream to the base station, revocations propagate
//	localize    sensors request references through the replay filters,
//	            then estimate their positions
package scenario

import (
	"fmt"
	"math"

	"beaconsec/internal/analysis"
	"beaconsec/internal/core"
	"beaconsec/internal/crypto"
	"beaconsec/internal/deploy"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/metrics"
	"beaconsec/internal/node"
	"beaconsec/internal/phy"
	"beaconsec/internal/revoke"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
	"beaconsec/internal/wormhole"
)

// WormholeSpec places one tunnel.
type WormholeSpec struct {
	A, B geo.Point
	// Latency is the tunnel's one-way relay delay; keep it under a few
	// bit-times for the analog wormholes of the paper's analysis.
	Latency sim.Time
}

// PaperWormhole is the reconstructed tunnel of the paper's §4 simulation:
// "a wormhole between location A (100,100) and location B (800,700),
// which forwards every message received at one side immediately to the
// other side".
func PaperWormhole() WormholeSpec {
	return WormholeSpec{A: geo.Point{X: 100, Y: 100}, B: geo.Point{X: 800, Y: 700}, Latency: 2}
}

// Config parameterizes one run. Start from Paper() and adjust.
type Config struct {
	Deploy deploy.Config
	Revoke revoke.Config
	// Strategy is every malicious beacon's (p_n, p_w, p_l) triple.
	Strategy analysis.Strategy
	// Detector selects the detection pipeline every node runs, by
	// registry name plus parameters (core.DetectorNames lists the
	// implementations). The zero value is the paper's §2.1–2.2
	// consistency/replay pipeline.
	Detector core.DetectorSpec
	// AttackBias is the distance enlargement of malicious attack
	// signals, in feet; zero selects the node-layer default (5·ε_max, an
	// unmistakable attack). Smaller biases model subtle attackers the
	// detector bake-off separates on.
	AttackBias float64
	// RTTStats pins the no-attack RTT calibration statistics detectors
	// calibrate against (e.g. the Mahalanobis detector's mean/σ); nil
	// derives them from a fresh calibration if — and only if — the
	// selected detector asks.
	RTTStats *core.RTTStats
	// MaxDistError is ε_max in feet (also the ranging error bound).
	MaxDistError float64
	// WormholeRate is the per-node wormhole detector's p_d.
	WormholeRate float64
	// Wormholes places tunnels in the field.
	Wormholes []WormholeSpec
	// Collude makes malicious beacons spend their full report budget on
	// alerts against random benign beacons (the paper's §4 assumption).
	Collude bool
	// ReplayAttackers places store-and-forward local replay attackers
	// that re-inject every beacon reply heard within range of their
	// position (§2.2.2's threat).
	ReplayAttackers []geo.Point
	// UplinkLoss is the per-attempt alert loss rate (retransmission
	// recovers; the paper assumes eventual delivery).
	UplinkLoss float64
	// RTTThreshold overrides the local-replay threshold; zero runs a
	// fresh calibration (CalibrationTrials exchanges).
	RTTThreshold      float64
	CalibrationTrials int
	// DisableRTTFilter / DisableWormholeFilter are ablation switches.
	DisableRTTFilter      bool
	DisableWormholeFilter bool
	// RobustLocalization makes sensors trim majority-inconsistent
	// references (LMS) before solving — defense in depth against
	// wormhole references that slip past the detector.
	RobustLocalization bool
	// UseGeoLeash swaps beacons' probabilistic wormhole detector for
	// the concrete geographic-leash implementation.
	UseGeoLeash bool
	// Distributed switches to the base-station-free revocation variant
	// the paper lists as future work: beacons gossip alerts to their
	// beacon neighbors and each runs the §3 counting algorithm on a
	// local ledger. Malicious colluders gossip fabricated alerts too.
	// Result.LocalCoverage / Result.LocalFalseRevocations measure what
	// losing the global view costs.
	Distributed bool
	// Seed drives everything except deployment placement (Deploy.Seed).
	Seed uint64

	// bruteForceMedium is a test hook: it forces the radio medium's
	// historical O(N) receiver scan instead of the spatial grid (see
	// phy.Config.BruteForce). The two paths are pinned byte-identical
	// by TestGridVsBruteForceByteIdentical.
	bruteForceMedium bool
}

// Paper returns the reconstructed configuration of the paper's §4
// simulation run: paper deployment, (τ=10, τ′=2), p_d = 0.9, ε = 10 ft,
// one analog wormhole, colluding malicious reporters.
func Paper() Config {
	return Config{
		Deploy:            deploy.Paper(),
		Revoke:            revoke.Config{ReportCap: 10, AlertThreshold: 2},
		Strategy:          analysis.StrategyForP(0.2),
		MaxDistError:      10,
		WormholeRate:      0.9,
		Wormholes:         []WormholeSpec{PaperWormhole()},
		Collude:           true,
		CalibrationTrials: 2000,
		Seed:              1,
	}
}

// Validate returns an error for inconsistent configurations.
func (c Config) Validate() error {
	if err := c.Deploy.Validate(); err != nil {
		return err
	}
	if err := c.Revoke.Validate(); err != nil {
		return err
	}
	if err := c.Strategy.Validate(); err != nil {
		return err
	}
	if err := c.Detector.Validate(); err != nil {
		return err
	}
	if !core.DetectorRegistered(c.Detector.Name) {
		return fmt.Errorf("scenario: unknown detector %q (registered: %v)",
			c.Detector.Name, core.DetectorNames())
	}
	if c.AttackBias < 0 {
		return fmt.Errorf("scenario: AttackBias %v must be non-negative", c.AttackBias)
	}
	if c.MaxDistError <= 0 {
		return fmt.Errorf("scenario: MaxDistError %v must be positive", c.MaxDistError)
	}
	if c.WormholeRate < 0 || c.WormholeRate > 1 {
		return fmt.Errorf("scenario: WormholeRate %v outside [0,1]", c.WormholeRate)
	}
	if c.UplinkLoss < 0 || c.UplinkLoss >= 1 {
		return fmt.Errorf("scenario: UplinkLoss %v outside [0,1)", c.UplinkLoss)
	}
	return nil
}

// Result carries everything a run measured.
type Result struct {
	// Population actually deployed.
	Population analysis.Population

	// RevokedMalicious / RevokedBenign count revocations by ground
	// truth.
	RevokedMalicious int
	RevokedBenign    int
	// DetectionRate = RevokedMalicious / Na.
	DetectionRate float64
	// FalsePositiveRate = RevokedBenign / (Nb - Na).
	FalsePositiveRate float64

	// AffectedPerMalicious is the paper's N′: sensors that accepted an
	// attack signal from a malicious beacon that survived revocation,
	// averaged over malicious beacons.
	AffectedPerMalicious float64
	// AvgNc is the measured mean number of distinct physical requesters
	// per malicious beacon.
	AvgNc float64

	// BenignAlerts counts alerts sent by benign beacons against benign
	// beacons (wormhole-induced false alerts).
	BenignAlerts int
	// TrueAlerts counts alerts by benign beacons against malicious ones.
	TrueAlerts int

	// Localized counts sensors that produced an estimate; LocErrMean and
	// LocErrMax summarize their error in feet.
	Localized  int
	LocErrMean float64
	LocErrMax  float64

	// RTTThreshold actually used (cycles).
	RTTThreshold float64
	// Detector is the canonical identity of the detection pipeline the
	// run used (e.g. "paper", "mahalanobis{threshold=3}").
	Detector string

	// Distributed-variant metrics (zero unless Config.Distributed):
	// LocalCoverage is the mean, over malicious beacons, of the fraction
	// of their benign beacon neighbors whose local ledger revoked them;
	// LocalFalseRevocations is the mean number of benign beacons each
	// benign beacon's ledger wrongly revoked.
	LocalCoverage         float64
	LocalFalseRevocations float64

	// Timeouts counts unanswered requests across all requesters.
	Timeouts int
	// Medium is the radio channel's counter snapshot.
	Medium phy.Stats
	// Metrics is the run's full deterministic instrumentation snapshot:
	// scheduler, radio, link, probe, filter, and revocation counters plus
	// the per-phase breakdown.
	Metrics Metrics

	// Sensors retains per-sensor outcomes for downstream analysis (nil
	// unless Config kept it — populated always; callers may drop it).
	beacons   []*node.Beacon
	malicious []*node.Malicious
	sensors   []*node.Sensor
	bs        *revoke.BaseStation
}

// BaseStation exposes the run's base station for inspection.
func (r *Result) BaseStation() *revoke.BaseStation { return r.bs }

// Sensors exposes the run's sensor nodes.
func (r *Result) Sensors() []*node.Sensor { return r.sensors }

// Beacons exposes the run's benign beacon nodes.
func (r *Result) Beacons() []*node.Beacon { return r.beacons }

// MaliciousNodes exposes the run's malicious beacons.
func (r *Result) MaliciousNodes() []*node.Malicious { return r.malicious }

// Phase timing (cycles). The windows are generous enough that CSMA and
// retries settle well before the next phase.
var (
	helloAt1   = sim.Seconds(0)
	helloAt2   = sim.Seconds(2)
	colludeAt  = sim.Seconds(4.5)
	detectFrom = sim.Seconds(5)
	detectLen  = sim.Seconds(60)
	requestAt  = sim.Seconds(70)
	requestLen = sim.Seconds(60)
	endAt      = sim.Seconds(140)
)

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dep := deploy.New(cfg.Deploy)
	src := rng.New(cfg.Seed)
	// Queue depth is always observed: the histogram is pure accounting
	// (identical for wheel and heap since both fire the same event
	// sequence), so keeping it on preserves result identity across queues.
	depth := sim.DepthHistogram()
	sched := sim.NewWithConfig(sim.Config{
		PendingHint: int64(cfg.Deploy.N),
		Depth:       depth,
	})
	medium := phy.NewMedium(sched, src.Split("medium"), phy.Config{
		Range:      cfg.Deploy.Range,
		Ranging:    phy.BoundedUniform{MaxError: cfg.MaxDistError},
		BruteForce: cfg.bruteForceMedium,
	})
	master := crypto.NewMaster([]byte(fmt.Sprintf("scenario-%d", cfg.Seed)))

	// The no-attack RTT calibration is memoized so the threshold and any
	// detector that asks for distribution moments share one measurement.
	var calMemo *core.Calibration
	calibration := func() core.Calibration {
		if calMemo == nil {
			trials := cfg.CalibrationTrials
			if trials == 0 {
				trials = 2000
			}
			c := core.CalibrateRTT(trials, phy.DefaultJitter(), cfg.Seed^0xCA11B8)
			calMemo = &c
		}
		return *calMemo
	}
	threshold := cfg.RTTThreshold
	if threshold == 0 {
		threshold = calibration().Threshold()
	}
	coreCfg := core.Config{
		MaxDistError: cfg.MaxDistError,
		MaxRTT:       threshold,
		Range:        cfg.Deploy.Range,
	}
	if cfg.DisableRTTFilter {
		coreCfg.MaxRTT = math.MaxFloat64
	}
	det, err := core.NewDetector(cfg.Detector, core.DetectorEnv{
		MaxDistError: coreCfg.MaxDistError,
		MaxRTT:       coreCfg.MaxRTT,
		Range:        coreCfg.Range,
		RTT: func() core.RTTStats {
			if cfg.RTTStats != nil {
				return *cfg.RTTStats
			}
			return calibration().Stats()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// The default paper detector runs through the Core config directly
	// (Env.Detector nil), keeping the hot path and its output bit-for-bit
	// identical to the pre-registry pipeline.
	var envDetector core.Detector
	if det.Spec().Canonical() != core.DefaultDetectorName {
		envDetector = det
	}

	bs := revoke.NewBaseStation(cfg.Revoke)
	uplink := revoke.NewUplink(sched, bs, src.Split("uplink"))
	uplink.LossRate = cfg.UplinkLoss

	env := &node.Env{
		Sched:              sched,
		Medium:             medium,
		Master:             master,
		Dep:                dep,
		Core:               coreCfg,
		Detector:           envDetector,
		Uplink:             uplink,
		Src:                src.Split("nodes"),
		WormholeRate:       cfg.WormholeRate,
		RequestRetries:     1,
		RobustLocalization: cfg.RobustLocalization,
		UseGeoLeash:        cfg.UseGeoLeash,
	}
	if cfg.DisableWormholeFilter {
		env.WormholeRate = 0
		// A disabled wormhole filter also ignores attacker marks; the
		// env's detector factory cannot express that, so nodes fall
		// back to rate 0 and marks still fire. True ablation of marks
		// is attacker-friendly anyway; rate 0 is the honest half.
	}

	// Build nodes: beacons (benign and malicious) then sensors.
	res := &Result{RTTThreshold: coreCfg.MaxRTT, Detector: det.Spec().Canonical(), bs: bs}
	maliciousByID := make(map[ident.NodeID]*node.Malicious)
	hello := src.Split("hello")
	for _, i := range dep.Beacons() {
		switch dep.Nodes[i].Kind {
		case deploy.KindBeacon:
			b := node.NewBeacon(env, i)
			if cfg.Distributed {
				b.Local = revoke.NewBaseStation(cfg.Revoke)
				b.GossipAlerts = true
				b.UplinkAlerts = false
			}
			b.AnnounceAt(helloAt1 + sim.Time(hello.Uint64()%uint64(sim.Seconds(2))))
			b.AnnounceAt(helloAt2 + sim.Time(hello.Uint64()%uint64(sim.Seconds(2))))
			b.StartDetection(detectFrom, detectLen)
			res.beacons = append(res.beacons, b)
		case deploy.KindMalicious:
			m := node.NewMalicious(env, i, node.MaliciousConfig{
				Strategy:  cfg.Strategy,
				RangeBias: cfg.AttackBias,
			})
			m.AnnounceAt(helloAt1 + sim.Time(hello.Uint64()%uint64(sim.Seconds(2))))
			m.AnnounceAt(helloAt2 + sim.Time(hello.Uint64()%uint64(sim.Seconds(2))))
			res.malicious = append(res.malicious, m)
			maliciousByID[m.ID()] = m
		}
	}
	if cfg.Collude && !cfg.Distributed {
		scheduleCollusion(cfg, dep, res.malicious, src.Split("collude"))
	}
	if cfg.Collude && cfg.Distributed {
		// Distributed colluders gossip their full fabricated budget to
		// whatever neighborhood hears them.
		colludeSrc := src.Split("collude")
		benign := dep.BenignBeacons()
		for _, m := range res.malicious {
			for r := 0; r <= cfg.Revoke.ReportCap && len(benign) > 0; r++ {
				victim := dep.Nodes[benign[colludeSrc.Intn(len(benign))]].ID
				m.GossipFakeAlertAt(colludeAt+sim.Time(colludeSrc.Intn(int(sim.Seconds(1)))), victim)
			}
		}
	}
	for _, i := range dep.Sensors() {
		s := node.NewSensor(env, i)
		s.StartRequests(requestAt, requestLen)
		res.sensors = append(res.sensors, s)
	}

	// Wormhole tunnels and local replay attackers.
	for _, w := range cfg.Wormholes {
		wormhole.Install(sched, medium, w.A, w.B, w.Latency)
	}
	for _, p := range cfg.ReplayAttackers {
		node.NewReplayAttacker(sched, medium, p, 0)
	}

	res.Medium = medium.Stats() // placeholder; refreshed after the run

	// Revocation distribution: the base station floods a revoke message;
	// we model the flood as a direct, slightly delayed notification to
	// every sensor (paper: "the revocation message from the base station
	// can reach most of sensor nodes" via standard fault tolerance).
	bs.OnRevoke(func(target ident.NodeID) {
		sched.After(sim.Millis(100), func() {
			for _, s := range res.sensors {
				s.MarkRevoked(target)
			}
		})
	})

	// Run the lifecycle phase by phase, snapshotting counters at each
	// boundary. The successive RunUntil calls execute exactly the event
	// sequence a single RunUntil(endAt) would (no RNG is consumed at
	// boundaries), so phase accounting is free of behavioral side effects.
	cuts := []struct {
		name  string
		until sim.Time
	}{
		{"announce", colludeAt},
		{"collude", detectFrom},
		{"detect", requestAt},
		{"localize", endAt},
	}
	spans := make([]metrics.Span, 0, len(cuts)+1)
	var prevFired, prevTx uint64
	prevAt := sched.Now()
	for _, cut := range cuts {
		sched.RunUntil(cut.until)
		fired, tx := sched.Fired(), medium.Stats().Transmissions
		spans = append(spans, metrics.Span{
			Name:          cut.name,
			StartCycles:   uint64(prevAt),
			EndCycles:     uint64(cut.until),
			Events:        fired - prevFired,
			Transmissions: tx - prevTx,
		})
		prevFired, prevTx, prevAt = fired, tx, cut.until
	}
	if sched.Pending() > 0 {
		// Drain stragglers (retries, uplink deliveries) to quiescence.
		if err := sched.Run(); err != nil {
			return nil, fmt.Errorf("scenario: scheduler stopped: %w", err)
		}
	}
	spans = append(spans, metrics.Span{
		Name:          "drain",
		StartCycles:   uint64(endAt),
		EndCycles:     uint64(sched.Now()),
		Events:        sched.Fired() - prevFired,
		Transmissions: medium.Stats().Transmissions - prevTx,
	})

	res.Medium = medium.Stats()
	res.collectInstrumentation(sched, medium, uplink, spans, depth)
	res.collectMetrics(cfg, dep, maliciousByID)
	return res, nil
}

// scheduleCollusion implements the paper's §4 colluding attacker: "we
// assume malicious beacon nodes collude together to report alerts against
// benign beacon nodes. Thus, they can always make the base station revoke
// about N_a(τ+1)/(τ′+1) benign beacon nodes". The colluders pool their
// report budgets (τ+1 each) and concentrate τ′+1 alerts from distinct
// reporters on each chosen victim.
func scheduleCollusion(cfg Config, dep *deploy.Deployment, colluders []*node.Malicious, src *rng.Source) {
	if len(colluders) == 0 {
		return
	}
	benign := dep.BenignBeacons()
	if len(benign) == 0 {
		return
	}
	perVictim := cfg.Revoke.AlertThreshold + 1
	if perVictim > len(colluders) {
		// Alerts from the same reporter against one target are
		// deduplicated by the base station, so fewer colluders than
		// τ′+1 cannot finish any victim; they abstain rather than
		// waste budget.
		return
	}
	budgets := make([]int, len(colluders))
	for i := range budgets {
		budgets[i] = cfg.Revoke.ReportCap + 1
	}
	order := src.Perm(len(benign))
	reporter := 0
	for _, vi := range order {
		victim := dep.Nodes[benign[vi]].ID
		// Check enough distinct colluders still have budget.
		withBudget := 0
		for _, b := range budgets {
			if b > 0 {
				withBudget++
			}
		}
		if withBudget < perVictim {
			return
		}
		assigned := 0
		for assigned < perVictim {
			if budgets[reporter] > 0 {
				colluders[reporter].SendAlertAt(colludeAt, victim)
				budgets[reporter]--
				assigned++
			}
			reporter = (reporter + 1) % len(colluders)
		}
	}
}

func (r *Result) collectMetrics(cfg Config, dep *deploy.Deployment, malicious map[ident.NodeID]*node.Malicious) {
	pop := analysis.Population{N: cfg.Deploy.N, Nb: cfg.Deploy.Nb, Na: cfg.Deploy.Na}
	r.Population = pop

	for id := range malicious {
		if r.bs.Revoked(id) {
			r.RevokedMalicious++
		}
	}
	for _, b := range r.beacons {
		if r.bs.Revoked(b.ID()) {
			r.RevokedBenign++
		}
	}
	if pop.Na > 0 {
		r.DetectionRate = float64(r.RevokedMalicious) / float64(pop.Na)
	}
	if pop.BenignBeacons() > 0 {
		r.FalsePositiveRate = float64(r.RevokedBenign) / float64(pop.BenignBeacons())
	}

	// Affected sensors per malicious beacon: accepted attack signals
	// from nodes that survived revocation.
	affected := 0
	for _, s := range r.sensors {
		for id, m := range malicious {
			if r.bs.Revoked(id) {
				continue
			}
			if s.AcceptedFrom[id] && m.AttackedIDs[s.ID()] {
				affected++
			}
		}
	}
	if pop.Na > 0 {
		r.AffectedPerMalicious = float64(affected) / float64(pop.Na)
	}

	// N_c: potential requesters per malicious beacon — every node within
	// radio range (the paper's "a malicious beacon node only contacts
	// the nodes within its communication range"). Realized requesters
	// can be fewer when the node is revoked before the sensor phase.
	if len(malicious) > 0 {
		total := 0
		buf := make([]int, 0, 128)
		for _, i := range dep.MaliciousBeacons() {
			buf = dep.Neighbors(i, buf[:0])
			total += len(buf)
		}
		r.AvgNc = float64(total) / float64(len(malicious))
	}

	// Alert ground truth.
	for _, b := range r.beacons {
		for _, target := range b.AlertsSent {
			if _, isMal := malicious[target]; isMal {
				r.TrueAlerts++
			} else {
				r.BenignAlerts++
			}
		}
	}

	// Distributed-variant metrics.
	if len(r.beacons) > 0 && r.beacons[0].Local != nil {
		beaconByID := make(map[ident.NodeID]*node.Beacon, len(r.beacons))
		for _, b := range r.beacons {
			beaconByID[b.ID()] = b
		}
		var coverage float64
		counted := 0
		buf := make([]int, 0, 128)
		for _, mi := range dep.MaliciousBeacons() {
			malID := dep.Nodes[mi].ID
			buf = dep.Neighbors(mi, buf[:0])
			revokers, benignNbrs := 0, 0
			for _, ni := range buf {
				b, ok := beaconByID[dep.Nodes[ni].ID]
				if !ok {
					continue
				}
				benignNbrs++
				if b.Local.Revoked(malID) {
					revokers++
				}
			}
			if benignNbrs > 0 {
				coverage += float64(revokers) / float64(benignNbrs)
				counted++
			}
		}
		if counted > 0 {
			r.LocalCoverage = coverage / float64(counted)
		}
		falseRevs := 0
		for _, b := range r.beacons {
			for _, id := range b.Local.RevokedSet() {
				if _, isMal := malicious[id]; !isMal {
					falseRevs++
				}
			}
		}
		r.LocalFalseRevocations = float64(falseRevs) / float64(len(r.beacons))
	}

	// Localization outcomes.
	var errSum, errMax float64
	for _, s := range r.sensors {
		r.Timeouts += s.Timeouts()
		if e, ok := s.LocalizationError(); ok {
			r.Localized++
			errSum += e
			if e > errMax {
				errMax = e
			}
		}
	}
	for _, b := range r.beacons {
		r.Timeouts += b.Timeouts()
	}
	if r.Localized > 0 {
		r.LocErrMean = errSum / float64(r.Localized)
	}
	r.LocErrMax = errMax
}

// physicalRequesters maps the requester identities a malicious node saw
// back to distinct physical nodes (each beacon's m detecting IDs collapse
// onto the beacon).
func physicalRequesters(dep *deploy.Deployment, m *node.Malicious) int {
	space := dep.Space
	seen := make(map[int]bool)
	for id := range m.RequestersSeen {
		seen[physicalIndex(space, id)] = true
	}
	return len(seen)
}

func physicalIndex(space ident.Space, id ident.NodeID) int {
	n := int(id) - 1
	switch {
	case n < space.NumBeacons:
		return n
	case n < space.NumBeacons+space.NumSensors:
		return n
	default:
		// Detecting pseudonym: recover the owning beacon index.
		det := n - space.NumBeacons - space.NumSensors
		return det / space.DetectingIDs
	}
}
