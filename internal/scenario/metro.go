package scenario

import (
	"context"
	"fmt"
	"math"
	"sync"

	"beaconsec/internal/deploy"
	"beaconsec/internal/metrics"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

// The metro family scales the paper's detection workload to 100k–1M-node
// fields. Run cannot go there: it materializes a Deployment, builds every
// node's state machine, and retains per-node verdicts for the whole run —
// and the ident space caps out at ~65k IDs anyway. RunMetro instead keeps
// the workload memory-bounded end to end:
//
//   - The deployment is never materialized: deploy.MetroConfig streams
//     nodes chunk by chunk, and the field survives only as the
//     deploy.MetroGrid per-cell count summary.
//   - Per-node outcomes are never retained: every probe exchange folds
//     into constant-size accumulators (counters + fixed-bucket
//     histograms) the moment it resolves.
//   - Per-node randomness is index-split (rng.SplitIndex), so results are
//     independent of chunk size and of everything but the seed.
//
// The probe model is the timer skeleton of the paper's §2 detection
// round: each node runs Rounds probe exchanges against its local beacon
// neighborhood; a probe schedules a reply (which cancels the timeout) or
// is lost (the timeout fires); replies carry a declared-distance error
// that the ε_max consistency check flags. That is exactly the
// schedule/cancel/fire mix the event queue serves in a full run, at a
// pending-event population proportional to the node count.
//
// Workers > 1 runs the same workload on a space-partitioned parallel
// kernel (DESIGN.md §14): the streamed deployment is split into
// contiguous index-range shards (deploy.ShardRanges), each shard owns a
// private sim.Scheduler with its own queue, depth histogram, and
// accumulators, and the shards advance in conservative lockstep windows
// of one probe Timeout (the lookahead) separated by barriers. Because
// probe chains are node-local and per-node rng is index-split, the
// partition cannot change any probe outcome: every identity-pinned field
// of MetroResult is byte-identical to the serial run at any worker count
// (see MetroResult.Identity and TestRunMetroWorkerInvariance).

// MetroConfig parameterizes one metro-scale run. Start from MetroPaper()
// and adjust.
type MetroConfig struct {
	// Deploy is the streamed deployment.
	Deploy deploy.MetroConfig
	// Workers selects the parallel shard count: 0 or 1 runs the serial
	// kernel, K ≥ 2 runs K space-partitioned shards on their own
	// goroutines. It is a pure performance knob excluded from cache-key
	// material — the identity-pinned fields of MetroResult
	// (everything MetroResult.Identity covers) are byte-identical at any
	// worker count; only the scheduler instrumentation (Sim.MaxPending,
	// Sim.VirtualCycles, QueueDepth's distribution) becomes per-shard,
	// with the merge semantics documented on MetroResult.
	Workers int `json:"-"`
	// Rounds is the number of probe exchanges each node runs.
	Rounds int
	// Spacing is the base virtual-time gap between a node's rounds (each
	// node jitters around it).
	Spacing sim.Time
	// Timeout is the reply deadline of one probe. It doubles as the
	// parallel kernel's conservative lookahead: no probe chain can affect
	// virtual times more than one Timeout past its current event.
	Timeout sim.Time
	// LossRate is the probability a probe gets no reply.
	LossRate float64
	// AttackBias is the distance enlargement of malicious replies in
	// feet.
	AttackBias float64
	// MaxDistError is ε_max in feet (the consistency-check bound and the
	// benign ranging-error envelope).
	MaxDistError float64
	// Seed drives the probe randomness (placement comes from
	// Deploy.Seed).
	Seed uint64
}

// MetroPaper returns the metro-scale configuration at the paper's
// densities: n nodes at §4's deployment mix, three detection rounds, 2%
// probe loss, ε = 10 ft, and a 1.5·ε attack bias (a subtle attacker, not
// the unmistakable 5·ε default of the full scenario).
func MetroPaper(n int64, seed uint64) MetroConfig {
	return MetroConfig{
		Deploy:       deploy.Metro(n, seed),
		Rounds:       3,
		Spacing:      sim.Millis(200),
		Timeout:      sim.Millis(20),
		LossRate:     0.02,
		AttackBias:   15,
		MaxDistError: 10,
		Seed:         seed,
	}
}

// maxMetroVirtual bounds the virtual-time arithmetic a metro run can
// reach: the last event of any chain lands no later than the first-round
// stagger (≤ Spacing) plus Rounds inter-round gaps (each ≤ Spacing +
// Spacing/4 jitter) plus one Timeout. Validate keeps that total under
// 2^62 cycles so sim.Time additions (and the parallel kernel's
// epoch·lookahead products) can never wrap the uint64 clock — an absurd
// Spacing used to overflow the Spacing/4+1 jitter path into a
// scheduling-in-the-past panic instead of a config error.
const maxMetroVirtual = uint64(1) << 62

// Validate returns an error for inconsistent configurations.
func (c MetroConfig) Validate() error {
	if err := c.Deploy.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("scenario: metro Workers = %d must be non-negative", c.Workers)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("scenario: metro Rounds = %d must be positive", c.Rounds)
	}
	if c.Spacing <= 0 {
		return fmt.Errorf("scenario: metro Spacing = %d must be positive", c.Spacing)
	}
	// Spacing·(2·Rounds+2) over-covers the stagger + jittered-gap total,
	// division keeps the check itself overflow-free.
	if uint64(c.Spacing) > maxMetroVirtual/(2*uint64(c.Rounds)+2) {
		return fmt.Errorf("scenario: metro Spacing = %d cycles overflows the virtual clock over %d rounds", c.Spacing, c.Rounds)
	}
	if c.Timeout < 4 {
		return fmt.Errorf("scenario: metro Timeout = %d must be >= 4 cycles", c.Timeout)
	}
	if uint64(c.Timeout) > maxMetroVirtual {
		return fmt.Errorf("scenario: metro Timeout = %d cycles overflows the virtual clock", c.Timeout)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("scenario: metro LossRate %v outside [0,1)", c.LossRate)
	}
	if c.AttackBias < 0 {
		return fmt.Errorf("scenario: metro AttackBias %v must be non-negative", c.AttackBias)
	}
	if c.MaxDistError <= 0 {
		return fmt.Errorf("scenario: metro MaxDistError %v must be positive", c.MaxDistError)
	}
	return nil
}

// MetroResult is a metro run's full accounting: population totals from
// the count grid, probe outcomes, flag counts by responder ground truth,
// and the scheduler's instrumentation. Everything here is deterministic
// in (Deploy.Seed, Seed) and identical across queue implementations.
//
// Worker-count semantics: every field MetroResult.Identity covers —
// population, probe/flag counters, FlagRate, the RTT histogram, and the
// Sim event/schedule/cancel totals — is additionally byte-identical at
// any Workers value. The remaining instrumentation merges per-shard with
// these documented semantics: Sim counters are summed across shards,
// Sim.MaxPending is the max over shards (each shard's private queue
// high-water mark, so it shrinks roughly by 1/K vs serial),
// Sim.VirtualCycles is the max over shards and is rounded up to the last
// conservative epoch boundary, and QueueDepth merges the per-shard depth
// histograms (total Count still equals the number of schedules, but the
// distribution reflects shard-local depths).
type MetroResult struct {
	// Population (from the deployment grid).
	Nodes     int64 `json:"nodes"`
	Beacons   int64 `json:"beacons"`
	Malicious int64 `json:"malicious"`

	// Probe outcomes.
	Probes          int64 `json:"probes"`
	Replies         int64 `json:"replies"`
	Timeouts        int64 `json:"timeouts"`
	MaliciousProbes int64 `json:"malicious_probes"`

	// FlaggedMalicious / FlaggedBenign count ε_max consistency-check hits
	// by responder ground truth; FlagRate = FlaggedMalicious /
	// MaliciousProbes.
	FlaggedMalicious int64   `json:"flagged_malicious"`
	FlaggedBenign    int64   `json:"flagged_benign"`
	FlagRate         float64 `json:"flag_rate"`

	// Sim is the scheduler snapshot (MaxPending is the standing event
	// population's high-water mark; per-shard at Workers > 1, see above).
	Sim sim.Stats `json:"sim"`
	// QueueDepth is the queue size observed after every schedule
	// (shard-local sizes at Workers > 1).
	QueueDepth *metrics.Histogram `json:"queue_depth"`
	// RTT is the reply round-trip distribution in cycles.
	RTT *metrics.Histogram `json:"rtt"`
}

// MetroIdentity is the projection of a MetroResult that is pinned
// byte-identical at any worker count, whichever queue each shard's
// scheduler picks for its population. Tests, the extra-metro runner, and
// the CI parallel-identity leg all compare runs through this projection;
// the fields it omits (MaxPending, VirtualCycles, the depth distribution)
// are the per-shard instrumentation documented on MetroResult.
type MetroIdentity struct {
	Nodes     int64 `json:"nodes"`
	Beacons   int64 `json:"beacons"`
	Malicious int64 `json:"malicious"`

	Probes          int64 `json:"probes"`
	Replies         int64 `json:"replies"`
	Timeouts        int64 `json:"timeouts"`
	MaliciousProbes int64 `json:"malicious_probes"`

	FlaggedMalicious int64   `json:"flagged_malicious"`
	FlaggedBenign    int64   `json:"flagged_benign"`
	FlagRate         float64 `json:"flag_rate"`

	// Events/Scheduled/Cancelled are shard-summed scheduler totals; the
	// sums equal the serial counts exactly (the partition moves events
	// between schedulers, it never creates or destroys them).
	Events    uint64 `json:"events"`
	Scheduled uint64 `json:"scheduled"`
	Cancelled uint64 `json:"cancelled"`

	RTT *metrics.Histogram `json:"rtt"`
}

// Identity returns the worker- and queue-invariant projection of r.
func (r *MetroResult) Identity() MetroIdentity {
	return MetroIdentity{
		Nodes:            r.Nodes,
		Beacons:          r.Beacons,
		Malicious:        r.Malicious,
		Probes:           r.Probes,
		Replies:          r.Replies,
		Timeouts:         r.Timeouts,
		MaliciousProbes:  r.MaliciousProbes,
		FlaggedMalicious: r.FlaggedMalicious,
		FlaggedBenign:    r.FlaggedBenign,
		FlagRate:         r.FlagRate,
		Events:           r.Sim.Events,
		Scheduled:        r.Sim.Scheduled,
		Cancelled:        r.Sim.Cancelled,
		RTT:              r.RTT,
	}
}

// metroAccum is the constant-size accumulator one scheduler's probe
// chains fold into. The serial kernel owns one; the parallel kernel owns
// one per shard and merges them in ascending shard order. All sums are
// exact (counters are integers and RTT observations are integral cycle
// counts far below 2^53), so the merge is associative and the merged
// totals equal the serial ones bit for bit.
type metroAccum struct {
	probes          int64
	replies         int64
	timeouts        int64
	maliciousProbes int64

	flaggedMalicious int64
	flaggedBenign    int64

	rtt *metrics.Histogram
}

func newMetroAccum() *metroAccum {
	return &metroAccum{rtt: metrics.NewHistogram(metrics.ExpBounds(64, 2, 16)...)}
}

// metroChain is one node's probe-round state machine; everything else a
// probe needs is drawn from src when the event fires.
type metroChain struct {
	src   *rng.Source
	pMal  float64 // local malicious fraction of beacons, from the grid
	round int
}

// addMetroNode wires one node's probe chain onto sched, folding outcomes
// into acc. This is the whole per-node protocol, shared verbatim by the
// serial and parallel kernels: the chain touches nothing but its own
// rng stream (index-split from root), the read-only grid, its scheduler,
// and its accumulator — which is exactly why a node lands in a shard
// without changing any outcome.
func addMetroNode(cfg *MetroConfig, grid *deploy.MetroGrid, sched *sim.Scheduler, root *rng.Source, acc *metroAccum, n deploy.MetroNode) {
	rttSpan := int(cfg.Timeout) / 2 // replies always beat the timeout
	ch := &metroChain{src: root.SplitIndex(uint64(n.Index))}
	if _, b, m := grid.CountsNear(n.Loc, cfg.Deploy.Range); b > 0 {
		ch.pMal = m / b
	}
	var probe func()
	done := func() {
		ch.round++
		if ch.round < cfg.Rounds {
			gap := cfg.Spacing + sim.Time(ch.src.Uint64()%uint64(cfg.Spacing/4+1))
			sched.After(gap, probe)
		}
	}
	probe = func() {
		acc.probes++
		isMal := ch.src.Bool(ch.pMal)
		lost := ch.src.Bool(cfg.LossRate)
		declaredErr := ch.src.Uniform(-cfg.MaxDistError, cfg.MaxDistError)
		if isMal {
			acc.maliciousProbes++
			declaredErr += cfg.AttackBias
		}
		rtt := sim.Time(1 + ch.src.Intn(rttSpan))
		timeout := sched.After(cfg.Timeout, func() {
			acc.timeouts++
			done()
		})
		if lost {
			return
		}
		sched.After(rtt, func() {
			acc.replies++
			acc.rtt.Observe(float64(rtt))
			if math.Abs(declaredErr) > cfg.MaxDistError {
				if isMal {
					acc.flaggedMalicious++
				} else {
					acc.flaggedBenign++
				}
			}
			timeout.Cancel()
			done()
		})
	}
	// Stagger the first round across one spacing window so the
	// field does not probe in lockstep.
	start := sim.Time(1 + ch.src.Uint64()%uint64(cfg.Spacing))
	sched.At(start, probe)
}

// ctxPollEvents is how many events a draining scheduler fires between
// context checks: frequent enough that a 1M-node run cancels in
// milliseconds, rare enough to be invisible next to the events.
const ctxPollEvents = 8192

// drainScheduler runs sched until its queue is empty, polling ctx every
// ctxPollEvents events so metro-scale runs stay interruptible (a bare
// sched.Run would not be).
func drainScheduler(ctx context.Context, sched *sim.Scheduler) error {
	for {
		for i := 0; i < ctxPollEvents; i++ {
			if !sched.Step() {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// RunMetro executes one metro-scale run, serial or parallel per
// cfg.Workers. Peak memory is O(nodes) only in the pending-event
// population and the per-node chain state (a rng state plus two words),
// never in retained results: accumulators are constant-size and the
// deployment exists only as its count grid. Cancelling ctx aborts the
// run — mid-stream or mid-drain — and returns the context's error.
func RunMetro(ctx context.Context, cfg MetroConfig) (*MetroResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers > 1 {
		return runMetroParallel(ctx, cfg, cfg.Workers)
	}
	return runMetroSerial(ctx, cfg)
}

// RunMetroParallel executes one metro-scale run on the space-partitioned
// parallel kernel with the given worker count, overriding cfg.Workers.
// workers ≤ 1 (or a population with a single shard) runs the serial
// kernel — which is also the definition the parallel identity contract
// is pinned against.
func RunMetroParallel(ctx context.Context, cfg MetroConfig, workers int) (*MetroResult, error) {
	cfg.Workers = workers
	return RunMetro(ctx, cfg)
}

func runMetroSerial(ctx context.Context, cfg MetroConfig) (*MetroResult, error) {
	grid, err := cfg.Deploy.BuildGrid()
	if err != nil {
		return nil, err
	}
	depth := sim.DepthHistogram()
	sched := sim.NewWithConfig(sim.Config{
		PendingHint: cfg.Deploy.NumNodes,
		Depth:       depth,
	})
	acc := newMetroAccum()
	root := rng.New(cfg.Seed).Split("metro-probes")
	err = cfg.Deploy.Stream(func(chunk []deploy.MetroNode) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		for i := range chunk {
			addMetroNode(&cfg, grid, sched, root, acc, chunk[i])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: metro stream: %w", err)
	}
	if err := drainScheduler(ctx, sched); err != nil {
		return nil, fmt.Errorf("scenario: metro run: %w", err)
	}
	return assembleMetroResult(grid, []*metroAccum{acc}, []sim.Stats{sched.Stats()}, []*metrics.Histogram{depth}), nil
}

// metroShard is one worker of the parallel kernel: a contiguous
// index-range slice of the population on a private scheduler. Nothing in
// it is shared — queue, depth histogram, accumulator, and the rng root
// (re-derived per shard from the seed) are all shard-local; the count
// grid is shared read-only.
type metroShard struct {
	sched *sim.Scheduler
	depth *metrics.Histogram
	acc   *metroAccum
	root  *rng.Source
	in    chan []deploy.MetroNode
	err   error
}

// epochBarrier synchronizes the shards' conservative time windows: no
// shard enters window w until every shard has retired window w-1. Each
// arrival carries the shard's pending-event count and its vote to quit
// (a cancelled context); the barrier resolves one collective verdict per
// generation, so every shard takes the same exit decision and nobody is
// left waiting — the classic conservative-parallel-DES lockstep
// (Chandy–Misra with a global lookahead instead of per-link null
// messages, which one probe-Timeout horizon makes sufficient).
type epochBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	waiting int
	gen     uint64

	pending int64
	quit    bool
	// verdict of the generation that last completed
	lastCont bool
	lastQuit bool
}

func newEpochBarrier(parties int) *epochBarrier {
	b := &epochBarrier{parties: parties}
	b.cond.L = &b.mu
	return b
}

// arrive blocks until all parties have arrived, then reports the
// collective verdict: cont is true iff some shard still has pending
// events and nobody voted to quit; aborted is true when a quit vote (a
// cancelled context) ended the run, distinguishing abort from a normal
// drain.
func (b *epochBarrier) arrive(pending int64, quit bool) (cont, aborted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending += pending
	b.quit = b.quit || quit
	b.waiting++
	if b.waiting == b.parties {
		b.lastCont = b.pending > 0 && !b.quit
		b.lastQuit = b.quit
		b.pending = 0
		b.quit = false
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.lastCont, b.lastQuit
	}
	gen := b.gen
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.lastCont, b.lastQuit
}

func runMetroParallel(ctx context.Context, cfg MetroConfig, workers int) (*MetroResult, error) {
	ranges := cfg.Deploy.ShardRanges(workers)
	if len(ranges) <= 1 {
		return runMetroSerial(ctx, cfg)
	}
	grid, err := cfg.Deploy.BuildGrid()
	if err != nil {
		return nil, err
	}
	k := len(ranges)
	shards := make([]*metroShard, k)
	for i, r := range ranges {
		depth := sim.DepthHistogram()
		shards[i] = &metroShard{
			sched: sim.NewWithConfig(sim.Config{
				PendingHint: r.Len(),
				Depth:       depth,
			}),
			depth: depth,
			acc:   newMetroAccum(),
			root:  rng.New(cfg.Seed).Split("metro-probes"),
			in:    make(chan []deploy.MetroNode, 2),
		}
	}

	// Producer: one pass over the stream in index order, routing a copy
	// of each chunk to its owning shard (Stream reuses the chunk slice).
	// Chunk-aligned shard ranges mean a chunk never splits.
	var streamErr error
	go func() {
		defer func() {
			for _, s := range shards {
				close(s.in)
			}
		}()
		streamErr = cfg.Deploy.StreamShards(k, func(shard int, chunk []deploy.MetroNode) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			buf := make([]deploy.MetroNode, len(chunk))
			copy(buf, chunk)
			select {
			case shards[shard].in <- buf:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()

	// Shard workers: ingest the shard's nodes (scheduling each chain in
	// index order, exactly as the serial kernel would), then advance in
	// conservative lockstep windows of one lookahead until the global
	// pending population drains. Today no event crosses shards — probe
	// chains are node-local — so the barrier never changes an outcome;
	// it is the interface that stays correct when a future protocol
	// stack injects cross-shard events with horizon ≥ lookahead.
	lookahead := cfg.Timeout
	barrier := newEpochBarrier(k)
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *metroShard) {
			defer wg.Done()
			for chunk := range s.in {
				for i := range chunk {
					addMetroNode(&cfg, grid, s.sched, s.root, s.acc, chunk[i])
				}
			}
			for epoch := uint64(1); ; epoch++ {
				cont, aborted := barrier.arrive(s.sched.Pending(), ctx.Err() != nil)
				if !cont {
					if aborted {
						if s.err = ctx.Err(); s.err == nil {
							s.err = context.Canceled
						}
					}
					break
				}
				s.sched.RunUntil(sim.Time(epoch) * lookahead)
			}
		}(s)
	}
	wg.Wait()

	if streamErr != nil {
		return nil, fmt.Errorf("scenario: metro stream: %w", streamErr)
	}
	for _, s := range shards {
		if s.err != nil {
			return nil, fmt.Errorf("scenario: metro run: %w", s.err)
		}
	}

	accs := make([]*metroAccum, k)
	stats := make([]sim.Stats, k)
	depths := make([]*metrics.Histogram, k)
	for i, s := range shards {
		accs[i] = s.acc
		stats[i] = s.sched.Stats()
		depths[i] = s.depth
	}
	return assembleMetroResult(grid, accs, stats, depths), nil
}

// assembleMetroResult merges per-shard accumulators into the final
// result in ascending shard order. With one shard this is the serial
// result verbatim; with many, the identity-pinned fields merge exactly
// (integer sums and integral histogram observations) and the scheduler
// instrumentation merges per the semantics documented on MetroResult
// (counter sums, max of MaxPending and VirtualCycles, depth-histogram
// bucket sums).
func assembleMetroResult(grid *deploy.MetroGrid, accs []*metroAccum, stats []sim.Stats, depths []*metrics.Histogram) *MetroResult {
	res := &MetroResult{
		Nodes:      grid.TotalNodes,
		Beacons:    grid.TotalBeacons,
		Malicious:  grid.TotalMalicious,
		QueueDepth: depths[0].Clone(),
		RTT:        accs[0].rtt.Clone(),
	}
	res.Sim = stats[0]
	for i := 1; i < len(accs); i++ {
		res.QueueDepth.Merge(depths[i])
		res.RTT.Merge(accs[i].rtt)
		res.Sim.Merge(stats[i])
	}
	for _, a := range accs {
		res.Probes += a.probes
		res.Replies += a.replies
		res.Timeouts += a.timeouts
		res.MaliciousProbes += a.maliciousProbes
		res.FlaggedMalicious += a.flaggedMalicious
		res.FlaggedBenign += a.flaggedBenign
	}
	if res.MaliciousProbes > 0 {
		res.FlagRate = float64(res.FlaggedMalicious) / float64(res.MaliciousProbes)
	}
	return res
}
