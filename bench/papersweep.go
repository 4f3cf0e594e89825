package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"beaconsec/internal/analysis"
	"beaconsec/internal/cache"
	"beaconsec/internal/core"
	"beaconsec/internal/geo"
	"beaconsec/internal/harness"
	"beaconsec/internal/phy"
	"beaconsec/internal/scenario"
)

// runPaperSweep runs the paper's §4 scenario over the Figure 12 P grid on
// harness.Sweep, the loop behind every simulation-backed figure. One unit
// is a cold sweep through a cache on a fresh directory (every job misses
// and stores) followed by a warm replay of the same directory through a
// new cache (every job hits).
func runPaperSweep(e *env) (*result, error) {
	res, ctx := e.res, context.Background()

	// Set-up: the shared RTT calibration every sweep's jobs are pinned
	// to, as experiment.simSweep does, plus the cache directory.
	var threshold float64
	for k := 0; k < e.size.setupReps; k++ {
		dir := e.scratchDir(fmt.Sprintf("setup-%d", k))
		t := time.Now()
		_, end := e.tr.start("core.CalibrateRTTWorkers", 0)
		cal, err := core.CalibrateRTTWorkers(e.size.calTrials, phy.DefaultJitter(), e.opts.seed^0xC0FFEE, e.nproc)
		end()
		if err != nil {
			return nil, err
		}
		_, end = e.tr.start("cache.New", 0)
		_, err = cache.New(cache.Config{Dir: dir})
		end()
		res.setup = append(res.setup, time.Since(t).Seconds())
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		threshold = cal.Threshold()
	}

	protos := make([]scenario.Config, len(e.size.paperPs))
	for i, p := range e.size.paperPs {
		cfg := scenario.Paper()
		cfg.Strategy = analysis.StrategyForP(p)
		cfg.RTTThreshold = threshold
		if e.size.paperShrink {
			cfg.Deploy.N, cfg.Deploy.Nb, cfg.Deploy.Na = 300, 33, 3
			cfg.Deploy.Field = geo.Square(550)
		}
		protos[i] = cfg
	}
	key, err := json.Marshal(struct {
		Kind   string
		Trials int
		Protos []scenario.Config
	}{"bench-paper-sweep", e.size.paperTrials, protos})
	if err != nil {
		return nil, err
	}
	jobs := len(protos) * e.size.paperTrials
	spec := func(c *cache.Cache, timing *harness.Timing, codec harness.Codec[*scenario.Result], run func(harness.Job) (*scenario.Result, error)) harness.Spec[*scenario.Result] {
		return harness.Spec[*scenario.Result]{
			Label:   "paper-sweep",
			Points:  harness.FloatLabels("P", e.size.paperPs),
			Trials:  e.size.paperTrials,
			Seed:    e.opts.seed,
			Workers: e.nproc,
			Timing:  timing,
			Cache:   c,
			Key:     key,
			Codec:   codec,
			Run:     func(_ context.Context, job harness.Job) (*scenario.Result, error) { return run(job) },
		}
	}
	jobConfig := func(job harness.Job) scenario.Config {
		cfg := protos[job.Point]
		cfg.Seed = job.Seed
		// Common random numbers across points, as in simSweep: only the
		// trial index seeds placement.
		cfg.Deploy.Seed = job.TrialSeed
		return cfg
	}

	var (
		sweepS, runWalls, jobWalls, warmS, idle []float64
		untracedJobs, untracedEvents, sweepSum  float64
		tracedJobs, tracedSweepS                float64
	)
	err = e.measure(1, func(i int, tr *tracer) error {
		dir := e.scratchDir(fmt.Sprintf("unit-%d", i))
		defer os.RemoveAll(dir)

		cold, err := cache.New(cache.Config{Dir: dir})
		if err != nil {
			return err
		}
		timing := harness.NewTiming()
		clock := newJobClock()
		var mu sync.Mutex
		var walls []float64
		sweepID, endSweep := tr.start("harness.Sweep/cold", 0)
		t := time.Now()
		grid, err := harness.Sweep(ctx, spec(cold, timing, clock, func(job harness.Job) (*scenario.Result, error) {
			_, end := tr.start("scenario.Run", sweepID)
			jt := time.Now()
			r, err := scenario.Run(jobConfig(job))
			wall := time.Since(jt).Seconds()
			end()
			mu.Lock()
			walls = append(walls, wall)
			mu.Unlock()
			clock.started(r, jt)
			return r, err
		}))
		wall := time.Since(t).Seconds()
		endSweep()
		if err != nil {
			res.ops(jobs, 0, err)
			return nil
		}
		res.ops(jobs, jobs, nil)

		var m scenario.Metrics
		for _, row := range grid {
			for _, r := range row {
				m.Merge(r.Metrics)
			}
		}
		coldStats := cold.Stats()
		res.check(coldStats.Misses == uint64(jobs) && coldStats.Stores == uint64(jobs),
			"cold sweep misses and stores every job")

		// Warm replay: a new cache on the same directory must serve every
		// job from disk without running one.
		warm, err := cache.New(cache.Config{Dir: dir})
		if err != nil {
			return err
		}
		var ran atomic.Bool
		_, endWarm := tr.start("harness.Sweep/warm", 0)
		t = time.Now()
		replay, err := harness.Sweep(ctx, spec(warm, nil, harness.JSONCodec[*scenario.Result](), func(job harness.Job) (*scenario.Result, error) {
			ran.Store(true)
			return scenario.Run(jobConfig(job))
		}))
		warmWall := time.Since(t).Seconds()
		endWarm()
		if err != nil {
			res.ops(jobs, 0, err)
			return nil
		}
		res.ops(jobs, jobs, nil)
		res.check(!ran.Load(), "warm replay runs no job")
		coldJSON, err1 := json.Marshal(grid)
		warmJSON, err2 := json.Marshal(replay)
		res.check(err1 == nil && err2 == nil && string(coldJSON) == string(warmJSON),
			"warm replay decodes results identical to the cold sweep")
		warmStats := warm.Stats()
		res.check(warmStats.Hits == uint64(jobs) && warmStats.DiskHits == uint64(jobs),
			"warm replay hits the disk store for every job")

		if i == 0 {
			countScenario(res, m)
			res.count("cache.stores", coldStats.Stores)
			res.count("cache.bytes_written", coldStats.BytesWritten)
			res.count("cache.hits", warmStats.Hits)
			res.count("cache.bytes_read", warmStats.BytesRead)
		}
		if tr != nil {
			res.tracedEvents += float64(m.Sim.Events)
			res.tracedTx += float64(m.Radio.Transmissions)
			tracedJobs += float64(jobs)
			tracedSweepS += wall
			return nil
		}
		untracedJobs += float64(jobs)
		untracedEvents += float64(m.Sim.Events)
		sweepSum += wall
		sweepS = append(sweepS, wall)
		runWalls = append(runWalls, walls...)
		jobWalls = append(jobWalls, clock.walls...)
		warmS = append(warmS, warmWall)
		idle = append(idle, 1-timing.JobSeconds.Sum/(float64(e.nproc)*timing.WallSeconds))
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.workPerS = untracedJobs / sweepSum
	res.opP50Ms = median(runWalls) * 1e3
	res.untracedRate = res.workPerS
	if tracedSweepS > 0 {
		res.tracedRate = tracedJobs / tracedSweepS
	}
	res.layer["sim.events_per_s"] = untracedEvents / sweepSum
	res.layer["harness.job_p50_s"] = median(jobWalls)
	res.layer["harness.idle_frac"] = median(idle)
	res.layer["cache.warm_replay_s"] = median(warmS)

	res.name("setup_s", median(res.setup), "s", fmt.Sprintf("median of %d calibrations + cache opens", len(res.setup)))
	res.name("sweep_s", median(sweepS), "s", fmt.Sprintf("median of %d cold %d-job sweeps", len(sweepS), jobs))
	res.name("run_p50_s", median(runWalls), "s", fmt.Sprintf("op_p50_ms: median of %d scenario.Run samples", len(runWalls)))
	res.name("sweep_jobs_per_s", res.workPerS, "1/s", fmt.Sprintf("work_per_s: %d jobs × %d cold sweeps over their summed wall", jobs, len(sweepS)))
	res.name("warm_replay_s", median(warmS), "s", fmt.Sprintf("median of %d warm replays", len(warmS)))
	return res, nil
}

// jobClock is the cold sweep's codec. It also times each job from the
// start of its scenario.Run to the decode of the bytes the cache stored,
// so a job's wall takes in the cache's encode and disk write. The harness
// hands Unmarshal the very slice Marshal returned, and the clock keys on
// that slice's backing array to pair the two.
type jobClock struct {
	harness.Codec[*scenario.Result]

	mu     sync.Mutex
	starts map[*scenario.Result]time.Time
	stored map[*byte]time.Time
	walls  []float64 // seconds, one per decoded job
}

func newJobClock() *jobClock {
	return &jobClock{
		Codec:  harness.JSONCodec[*scenario.Result](),
		starts: map[*scenario.Result]time.Time{},
		stored: map[*byte]time.Time{},
	}
}

// started notes when the job that produced r began.
func (c *jobClock) started(r *scenario.Result, t time.Time) {
	c.mu.Lock()
	c.starts[r] = t
	c.mu.Unlock()
}

func (c *jobClock) Marshal(r *scenario.Result) ([]byte, error) {
	data, err := c.Codec.Marshal(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.starts[r]; ok && err == nil && len(data) > 0 {
		c.stored[unsafe.SliceData(data)] = t
	}
	delete(c.starts, r)
	return data, err
}

func (c *jobClock) Unmarshal(data []byte) (*scenario.Result, error) {
	r, err := c.Codec.Unmarshal(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.stored[unsafe.SliceData(data)]; ok {
		c.walls = append(c.walls, time.Since(t).Seconds())
		delete(c.stored, unsafe.SliceData(data))
	}
	return r, err
}

// countScenario records a sweep's merged scenario counters.
func countScenario(res *result, m scenario.Metrics) {
	res.count("sim.events", m.Sim.Events)
	res.count("sim.scheduled", m.Sim.Scheduled)
	res.count("sim.cancelled", m.Sim.Cancelled)
	res.count("sim.max_pending", uint64(m.Sim.MaxPending))
	res.count("phy.transmissions", m.Radio.Transmissions)
	res.count("phy.deliveries", m.Radio.Deliveries)
	res.count("phy.collisions", m.Radio.Collisions)
	res.count("mac.sent", m.Link.Sent)
	res.count("mac.backoffs", m.Link.Backoffs)
	res.count("node.probes", m.Probes.Probes)
	res.count("node.timeouts", m.Probes.Timeouts)
	f := m.Filters
	res.count("core.verdicts", f.DetectorBenign+f.DetectorMalicious+f.DetectorWormholeReplay+f.DetectorLocalReplay)
	res.count("revoke.handled", m.Revocation.Base.Handled)
	res.count("revoke.accepted", m.Revocation.Base.Accepted)
	res.count("revoke.revocations", m.Revocation.Base.Revocations)
}
