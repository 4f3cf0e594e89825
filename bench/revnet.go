package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"beaconsec/internal/crypto"
	"beaconsec/internal/ident"
	"beaconsec/internal/revnet"
	"beaconsec/internal/revoke"
)

// revnetTargetBase is the first node ID alerts and queries name; reporter
// IDs stay below it, so no alert is a self-report.
const revnetTargetBase = 1000

// runRevnet drives the networked revocation service over loopback in a
// closed loop: one connection per CPU, each a distinct reporter that
// waits for every reply before sending its next request, in a mix of
// three alerts to one query. Thresholds sit above any round's alert
// count, and each reporter names a target at most once a round, so every
// alert takes the accept path. One unit is a round on a fresh server,
// started the way cmd/revoked starts it; its set-up (listen, dials and a
// warm-up query per connection) is one setup_s sample.
func runRevnet(e *env) (*result, error) {
	res, ctx := e.res, context.Background()
	master := crypto.NewMaster(fmt.Appendf(nil, "bench-revnet-%d", e.opts.seed))
	n, k := e.nproc, e.size.revnetRequests
	if alerts := k - k/4; alerts > int(ident.Broadcast)-revnetTargetBase {
		return nil, fmt.Errorf("revnet: %d alerts per connection exceed the distinct targets", alerts)
	}

	// Per-round quantiles of round-trip time, µs. Rounds keep their
	// samples in per-connection buffers reused from round to round, so the
	// benchmark's own memory stays flat and out of peak_rss_mb.
	var (
		rates, means, p50, p90, p99, alertP50, queryP50 []float64
		tracedReqs, tracedS                             float64
	)
	conns := make([]connResult, n)
	for c := range conns {
		conns[c] = connResult{alerts: make([]float64, 0, k), queries: make([]float64, 0, k/4)}
	}
	all := make([]float64, 0, n*k)
	err := e.measure(1, func(i int, tr *tracer) error {
		roundID, endRound := tr.start("revnet.round", 0)
		defer endRound()

		t := time.Now()
		_, end := tr.start("revnet.NewServer", roundID)
		srv, err := revnet.NewServer(revnet.ServerConfig{
			Revoke:      revoke.Config{ReportCap: 1 << 30, AlertThreshold: 1 << 30},
			Shards:      16,
			Master:      master,
			IdleTimeout: 2 * time.Minute,
		})
		end()
		if err != nil {
			return err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		served := make(chan error, 1)
		go func() {
			_, end := tr.start("revnet.Server.Serve", roundID)
			defer end()
			served <- srv.Serve(lis)
		}()
		defer func() {
			srv.Close()
			if err := <-served; err != nil {
				res.op(err)
			}
		}()

		clients := make([]*revnet.Client, n)
		for c := range clients {
			self := ident.NodeID(1 + c)
			cl, err := revnet.NewClient(revnet.ClientConfig{
				Addr: lis.Addr().String(),
				Self: self,
				Key:  master.BaseStationKey(self),
			})
			if err != nil {
				return err
			}
			defer cl.Close()
			clients[c] = cl
			_, end := tr.start("revnet.Client.Query/warm-up", roundID)
			_, err = cl.Query(ctx, revnetTargetBase)
			end()
			res.op(err)
		}
		res.setup = append(res.setup, time.Since(t).Seconds())

		plans := make([][]request, n)
		for c := range plans {
			plans[c] = plan(k, rand.New(rand.NewPCG(e.opts.seed, uint64(i*n+c))))
		}
		var wg sync.WaitGroup
		t = time.Now()
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				drive(ctx, tr, roundID, clients[c], plans[c], &conns[c])
			}(c)
		}
		wg.Wait()
		wall := time.Since(t).Seconds()

		snap := srv.StatusSnapshot()
		alerts, queries := 0, 0
		var exhausted uint64
		for c := range conns {
			res.ops(k, len(conns[c].alerts)+len(conns[c].queries), conns[c].err)
			res.check(conns[c].accepted == len(conns[c].alerts), "every alert accepted")
			alerts += len(conns[c].alerts)
			queries += len(conns[c].queries)
			exhausted += clients[c].Metrics().Exhausted.Load()
		}
		res.check(snap.Station.Handled == uint64(alerts), "server handled every alert sent")
		res.check(snap.Net.QueriesServed == uint64(queries+n), "server served every query sent")
		res.check(snap.Net.AuthFailures == 0 && snap.Net.ProtocolErrors == 0 && snap.Net.ConnsDropped == 0,
			"no authentication failures, protocol errors or dropped connections")
		res.check(exhausted == 0, "no request exhausted its retries")

		if i == 0 {
			res.count("revoke.handled", snap.Station.Handled)
			res.count("revoke.accepted", snap.Station.Accepted)
			res.count("revoke.revocations", snap.Station.Revocations)
			res.count("revnet.frames_in", snap.Net.FramesIn)
			res.count("revnet.bytes_in", snap.Net.BytesIn)
			res.count("revnet.bytes_out", snap.Net.BytesOut)
			res.count("revnet.conns_accepted", snap.Net.ConnsAccepted)
		}
		if tr != nil {
			tracedReqs += float64(alerts + queries)
			tracedS += wall
			return nil
		}
		rates = append(rates, float64(alerts+queries)/wall)
		all = all[:0]
		var sum float64
		for _, c := range conns {
			all = append(append(all, c.alerts...), c.queries...)
			for _, d := range c.alerts {
				sum += d
			}
			for _, d := range c.queries {
				sum += d
			}
			alertP50 = append(alertP50, quantile(c.alerts, 0.5))
			queryP50 = append(queryP50, quantile(c.queries, 0.5))
		}
		means = append(means, sum/float64(len(all)))
		p50 = append(p50, quantile(all, 0.5))
		p90 = append(p90, quantile(all, 0.9))
		p99 = append(p99, quantile(all, 0.99))
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.workPerS = median(rates)
	// A request's round trip falls in one of two modes, near 11 µs and
	// near 20 µs on a 2-CPU host, by how the host schedules the client's
	// and the server's threads; the share in each mode follows the host's
	// other load, so the median request flips between the modes from run
	// to run. A round's mean moves smoothly with that share, and the
	// median round's mean is what op_p50_ms gates.
	res.opP50Ms = median(means) / 1e3
	res.untracedRate = res.workPerS
	if tracedS > 0 {
		res.tracedRate = tracedReqs / tracedS
	}
	res.layer["revnet.alert_p50_us"] = median(alertP50)
	res.layer["revnet.query_p50_us"] = median(queryP50)
	res.layer["revnet.rtt_p99_us"] = median(p99)

	res.name("setup_s", median(res.setup), "s", fmt.Sprintf("median of %d listen + %d dials + warm-up queries", len(res.setup), n))
	res.name("revnet_ops_per_s", res.workPerS, "1/s",
		fmt.Sprintf("work_per_s: median of %d rounds, %d connections × %d requests", len(rates), n, k))
	res.name("revnet_rtt_mean_us", median(means), "us", fmt.Sprintf("op_p50_ms: median over %d rounds of the mean of %d round trips", len(means), n*k))
	res.name("revnet_rtt_p50_us", median(p50), "us", fmt.Sprintf("median over %d rounds of %d round trips", len(p50), n*k))
	res.name("revnet_rtt_p90_us", median(p90), "us", fmt.Sprintf("median over %d rounds of %d round trips", len(p90), n*k))
	return res, nil
}

// request is one step of a connection's closed loop.
type request struct {
	query  bool
	target ident.NodeID
}

// plan lays out one connection's k requests: three alerts naming fresh
// targets, then a query about a target alerted earlier. r fixes the
// order.
func plan(k int, r *rand.Rand) []request {
	targets := r.Perm(int(ident.Broadcast) - revnetTargetBase)
	reqs := make([]request, k)
	sent := 0
	for j := range reqs {
		if j%4 == 3 {
			reqs[j] = request{query: true, target: ident.NodeID(revnetTargetBase + targets[r.IntN(sent)])}
			continue
		}
		reqs[j] = request{target: ident.NodeID(revnetTargetBase + targets[sent])}
		sent++
	}
	return reqs
}

// connResult is what one connection's closed loop measured.
type connResult struct {
	alerts, queries []float64 // round trips, µs
	accepted        int
	err             error
}

// drive sends a connection's requests in order, each after the previous
// reply, and records them in out, reusing its buffers.
func drive(ctx context.Context, tr *tracer, parent int64, cl *revnet.Client, reqs []request, out *connResult) {
	*out = connResult{alerts: out.alerts[:0], queries: out.queries[:0]}
	for _, req := range reqs {
		if req.query {
			_, end := tr.start("revnet.Client.Query", parent)
			t := time.Now()
			revoked, err := cl.Query(ctx, req.target)
			d := time.Since(t)
			end()
			if err == nil && revoked {
				err = errors.New("revnet: query reports a revocation below threshold")
			}
			if err != nil {
				out.err = err
				return
			}
			out.queries = append(out.queries, float64(d.Nanoseconds())/1e3)
			continue
		}
		_, end := tr.start("revnet.Client.SendAlert", parent)
		t := time.Now()
		outcome, err := cl.SendAlert(ctx, req.target)
		d := time.Since(t)
		end()
		if err != nil {
			out.err = err
			return
		}
		if outcome == revoke.OutcomeAccepted {
			out.accepted++
		}
		out.alerts = append(out.alerts, float64(d.Nanoseconds())/1e3)
	}
}
