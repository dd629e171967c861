package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// The serving half of the layer matrix: the server core in-process, the
// two transports around it, the coalescer's burst shape, the flight
// recorder's cost, the session operations with and without a WAL, and
// the router hop.

// serverCompile times Server.Compile of compile-cold's rule set against
// an attached compile cache: the first name misses and compiles, the
// second name over the same rules hits and loads.
func (l *layerRun) serverCompile(ctx context.Context, rules []string) error {
	var miss, hit []float64
	for rep := 0; rep < 3; rep++ {
		if err := func() (err error) {
			dir, err := scratchDir(l.cfg, "srvcache-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			srv := server.New(server.Config{Registry: telemetry.NewRegistry()})
			defer func() { err = errors.Join(err, shutdownServer(ctx, srv)) }()
			if err := srv.AttachCache(dir); err != nil {
				return err
			}
			req := server.CompileRequest{Patterns: rules}
			t0 := time.Now()
			first, err := srv.Compile(ctx, "cold-a", req)
			if err != nil {
				return err
			}
			miss = append(miss, time.Since(t0).Seconds())
			t0 = time.Now()
			second, err := srv.Compile(ctx, "cold-b", req)
			if err != nil {
				return err
			}
			hit = append(hit, time.Since(t0).Seconds())
			l.check(!first.Cached && second.Cached && first.States == second.States)
			return nil
		}(); err != nil {
			return fmt.Errorf("server.compile: %w", err)
		}
	}
	l.set("server.compile_s", miss)
	l.set("server.compile_cached_s", hit)
	return nil
}

// startSmallServer is a server holding the small rule set.
func startSmallServer(ctx context.Context, cfg server.Config) (*server.Server, error) {
	srv := server.New(cfg)
	if _, err := srv.Compile(ctx, "small", server.CompileRequest{Patterns: smallRules}); err != nil {
		return nil, errors.Join(err, shutdownServer(ctx, srv))
	}
	return srv, nil
}

// serving times one /match at each depth — Server.Match in-process,
// then through HTTP and through the line-framed TCP transport — each
// paired with the depth below it, so the self times are differences of
// measurements taken a moment apart.
func (l *layerRun) serving(ctx context.Context) (err error) {
	p, err := newSmallPlan(ctx, l.cfg)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	srv, err := startSmallServer(ctx, server.Config{Registry: reg})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdownServer(ctx, srv)) }()

	i := 0
	match := func() error {
		i = (i + 1) % len(p.payloads)
		resp, err := srv.Match(ctx, server.MatchRequest{Ruleset: "small", Input: p.payloads[i]})
		l.check(err == nil && wireDigest(resp.Matches) == p.want[i])
		return err
	}
	inproc, run, err := l.timePairs(1, time.Microsecond, match, func() error {
		_, _, err := p.a0.RunContext(ctx, []byte(p.payloads[i]))
		return err
	})
	if err != nil {
		return err
	}
	l.set("server.match_us", inproc)
	l.count("server.match_self_us", quietDiff(inproc, run))
	allocs, bytesPer, err := allocsPer(256, match)
	if err != nil {
		return err
	}
	l.count("server.allocs_per_match", allocs)
	l.count("server.alloc_bytes_per_match", bytesPer)

	front, err := serveHTTP(srv.Handler())
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, front.shutdown(ctx)) }()
	cl := newWireClient(1)
	defer cl.close()
	overHTTP, inproc, err := l.timePairs(1, time.Microsecond, func() error {
		i = (i + 1) % len(p.bodies)
		status, reply, _, err := cl.do(ctx, http.MethodPost, front.url+"/match", p.bodies[i])
		l.check(matchOK(status, reply, err, p.want[i]))
		return err
	}, match)
	if err != nil {
		return err
	}
	l.count("server.http_self_us", quietDiff(overHTTP, inproc))

	overTCP, inproc, err := l.tcpMatch(ctx, srv, p, match)
	if err != nil {
		return err
	}
	l.count("server.tcp_self_us", quietDiff(overTCP, inproc))
	l.count("server.shed_total", float64(telemetry.NewServerCollector(reg).Rejected.Value()))

	if err := l.burst64(ctx, p); err != nil {
		return err
	}
	return l.recorderOverhead(ctx, p)
}

// tcpMatch times /match round trips on one connection of the
// line-framed transport, paired with the in-process call.
func (l *layerRun) tcpMatch(ctx context.Context, srv *server.Server, p *smallPlan, inproc func() error) (overTCP, direct []float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ts := srv.ServeTCP(ln)
	defer func() { err = errors.Join(err, ts.Shutdown(ctx)) }()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", ts.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	lines := make([][]byte, len(p.payloads))
	for i, in := range p.payloads {
		line, err := json.Marshal(map[string]string{"op": "match", "ruleset": "small", "input": in})
		if err != nil {
			return nil, nil, err
		}
		lines[i] = append(line, '\n')
	}
	rd := bufio.NewReaderSize(conn, 64<<10)
	i := 0
	return l.timePairs(1, time.Microsecond, func() error {
		i = (i + 1) % len(lines)
		if _, err := conn.Write(lines[i]); err != nil {
			return err
		}
		reply, err := rd.ReadBytes('\n')
		if err != nil {
			return err
		}
		var env struct {
			OK     bool                 `json:"ok"`
			Result server.MatchResponse `json:"result"`
		}
		l.check(json.Unmarshal(reply, &env) == nil && env.OK && wireDigest(env.Result.Matches) == p.want[i])
		return nil
	}, inproc)
}

// burst64 is the 64-caller shape the request coalescer was built for:
// 64 in-process goroutines released together, each sending a few 1 KiB
// requests, against a per-request server and a coalescing one. The
// coalescer is off by default, so this row moves no end-to-end metric;
// it is the baseline for any proposal to turn it on.
func (l *layerRun) burst64(ctx context.Context, p *smallPlan) (err error) {
	const callers, perCaller = 64, 16
	mk := func(batched bool) (*server.Server, *telemetry.Registry, error) {
		cfg := server.Config{Registry: telemetry.NewRegistry(), TraceRingSize: -1, MatchWorkers: 8, QueueDepth: 2 * callers, QueueWait: time.Minute}
		if batched {
			cfg.BatchWindow, cfg.BatchMax = time.Millisecond, 256
		}
		srv, err := startSmallServer(ctx, cfg)
		return srv, cfg.Registry, err
	}
	plain, _, err := mk(false)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdownServer(ctx, plain)) }()
	batched, breg, err := mk(true)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdownServer(ctx, batched)) }()

	burst := func(srv *server.Server) (float64, error) {
		start := make(chan struct{})
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for r := 0; r < perCaller; r++ {
					i := (c*perCaller + r) % len(p.payloads)
					resp, err := srv.Match(ctx, server.MatchRequest{Ruleset: "small", Input: p.payloads[i]})
					if err != nil {
						errs[c] = err
						return
					}
					if wireDigest(resp.Matches) != p.want[i] {
						errs[c] = fmt.Errorf("burst: payload %d: wrong matches", i)
						return
					}
				}
			}(c)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		return callers * perCaller / time.Since(t0).Seconds(), errors.Join(errs...)
	}
	var plainRate, batchedRate []float64
	for start := time.Now(); len(plainRate) < 2 || time.Since(start) < 4*l.cfg.probe; {
		// Alternate the order so a noise spike cannot favour one side.
		order := []*server.Server{plain, batched}
		if len(plainRate)%2 == 1 {
			order[0], order[1] = batched, plain
		}
		for _, srv := range order {
			rate, err := burst(srv)
			l.check(err == nil)
			if err != nil {
				return err
			}
			if srv == plain {
				plainRate = append(plainRate, rate)
			} else {
				batchedRate = append(batchedRate, rate)
			}
		}
	}
	// The first burst of each warms the pools and is not reported.
	l.set("server.burst64_req_per_s", plainRate[1:])
	l.set("server.burst64_batched_req_per_s", batchedRate[1:])
	l.count("server.batched_requests", float64(telemetry.NewServerCollector(breg).BatchedRequests.Value()))
	return nil
}

// recorderOverhead is serve-small's closed loop against two servers
// that differ only in the request flight recorder: default ring size
// against recorder off. The ratio is what the recorder costs in
// requests per second (1 = free).
func (l *layerRun) recorderOverhead(ctx context.Context, p *smallPlan) (err error) {
	rate := func(ringSize int) (func() (float64, error), func() error, error) {
		srv, err := startSmallServer(ctx, server.Config{Registry: telemetry.NewRegistry(), TraceRingSize: ringSize})
		if err != nil {
			return nil, nil, err
		}
		front, err := serveHTTP(srv.Handler())
		if err != nil {
			return nil, nil, errors.Join(err, shutdownServer(ctx, srv))
		}
		cl := newWireClient(p.clients)
		stop := func() error {
			cl.close()
			return errors.Join(front.shutdown(ctx), shutdownServer(ctx, srv))
		}
		return func() (float64, error) {
			loop, err := closedLoop(ctx, p.clients, 2*l.cfg.probe, func(ctx context.Context, c, iter int, log *clientLog) error {
				i := (c*61 + iter) % len(p.bodies)
				status, reply, lat, err := cl.do(ctx, http.MethodPost, front.url+"/match", p.bodies[i])
				log.record(lat, matchOK(status, reply, err, p.want[i]))
				return nil
			})
			l.attempted += int64(len(loop.lat))
			l.failed += loop.failed
			return float64(len(loop.lat)) / loop.wall.Seconds(), err
		}, stop, nil
	}
	on, stopOn, err := rate(0)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopOn()) }()
	off, stopOff, err := rate(-1)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopOff()) }()
	var onRate, offRate []float64
	for r := 0; r < 4; r++ {
		a, err := on()
		if err != nil {
			return err
		}
		b, err := off()
		if err != nil {
			return err
		}
		if r > 0 { // the first pair warms both servers
			onRate, offRate = append(onRate, a), append(offRate, b)
		}
	}
	l.count("telemetry.recorder_overhead_ratio", quiet(onRate, true)/quiet(offRate, true))
	return nil
}

// sessions times the session operations in-process on a WAL-backed
// server, and a feed on a server without one: the difference is what
// checkpoint-per-feed durability costs.
func (l *layerRun) sessions(ctx context.Context) (err error) {
	plan, err := newSessionPlan(ctx, l.cfg)
	if err != nil {
		return err
	}
	dir, err := scratchDir(l.cfg, "wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durable, err := startSmallServer(ctx, server.Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdownServer(ctx, durable)) }()
	if _, err := durable.AttachWAL(dir); err != nil {
		return err
	}
	volatile, err := startSmallServer(ctx, server.Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdownServer(ctx, volatile)) }()

	ops := map[string][]float64{}
	timeOp := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		ops[name] = append(ops[name], micros(time.Since(t0)))
		return err
	}
	// One session per iteration on each server, fed the same stream; the
	// durable one is also checkpointed, suspended, resumed and closed.
	session := func(s int) error {
		var id, plainID string
		var got digest
		if err := timeOp("open", func() error {
			info, err := durable.OpenSession(ctx, server.OpenSessionRequest{Ruleset: "small"})
			if err == nil {
				id = info.Session
			}
			return err
		}); err != nil {
			return err
		}
		info, err := volatile.OpenSession(ctx, server.OpenSessionRequest{Ruleset: "small"})
		if err != nil {
			return err
		}
		plainID = info.Session
		feed := func(f int) error {
			chunk := string(plan.chunks[s][f])
			if err := timeOp("feed", func() error {
				fr, err := durable.Feed(ctx, id, server.FeedRequest{Chunk: chunk})
				if err == nil {
					for _, m := range fr.Matches {
						got.add(m.Offset, int32(m.Pattern))
					}
				}
				return err
			}); err != nil {
				return err
			}
			return timeOp("feed-volatile", func() error {
				_, err := volatile.Feed(ctx, plainID, server.FeedRequest{Chunk: chunk})
				return err
			})
		}
		for f := 0; f < feedsPerHalf; f++ {
			if err := feed(f); err != nil {
				return err
			}
		}
		if err := timeOp("checkpoint", func() error {
			_, err := durable.Checkpoint(ctx, id)
			return err
		}); err != nil {
			return err
		}
		var snap *server.SuspendResponse
		if err := timeOp("suspend", func() (err error) {
			snap, err = durable.Suspend(ctx, id)
			return err
		}); err != nil {
			return err
		}
		if err := timeOp("resume", func() error {
			info, err := durable.OpenSession(ctx, server.OpenSessionRequest{Ruleset: "small", SnapshotB64: snap.SnapshotB64})
			if err == nil {
				id = info.Session
			}
			return err
		}); err != nil {
			return err
		}
		for f := feedsPerHalf; f < 2*feedsPerHalf; f++ {
			if err := feed(f); err != nil {
				return err
			}
		}
		l.check(got == plan.streamWant[s])
		if err := timeOp("close", func() error { return durable.CloseSession(ctx, id) }); err != nil {
			return err
		}
		return volatile.CloseSession(ctx, plainID)
	}
	walPath := filepath.Join(dir, "session.wal")
	before, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	n := 0
	for start := time.Now(); n < 2 || time.Since(start) < 4*l.cfg.probe; n++ {
		if err := session(n % len(plan.chunks)); err != nil {
			return err
		}
	}
	after, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	for _, op := range []string{"open", "feed", "checkpoint", "suspend", "resume", "close"} {
		l.set("server."+op+"_us", ops[op])
	}
	l.count("server.wal_cost_us", quietDiff(ops["feed"], ops["feed-volatile"]))
	// Every WAL byte of a session is attributed to its feeds: the log
	// also holds the open, suspend and close records, a few dozen bytes
	// against 32 checkpoints. The log compacts at 16 MiB, far above what
	// this probe writes.
	l.count("server.wal_bytes_per_feed", float64(after.Size()-before.Size())/float64(len(ops["feed"])))
	return nil
}

// clusterHop times /match and a session feed through the router and
// straight at a node, both over HTTP on one connection: the difference
// is the router hop (and, for feeds, the checkpoint the router ships
// back with every one).
func (l *layerRun) clusterHop(ctx context.Context) (err error) {
	plan, err := newSessionPlan(ctx, l.cfg)
	if err != nil {
		return err
	}
	c, err := startCluster(ctx, l.cfg, plan)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, closeInstance(ctx, c)) }()
	cl := newWireClient(1)
	defer cl.close()

	i := 0
	matchAt := func(url string) func() error {
		return func() error {
			i = (i + 1) % len(plan.bodies)
			status, reply, _, err := cl.do(ctx, http.MethodPost, url+"/match", plan.bodies[i])
			l.check(matchOK(status, reply, err, plan.want[i]))
			return err
		}
	}
	viaRouter, direct, err := l.timePairs(1, time.Microsecond, matchAt(c.front.url), matchAt(c.nodes[0].URL))
	if err != nil {
		return err
	}
	l.count("cluster.match_hop_us", quietDiff(viaRouter, direct))

	// One session through the router and one straight at a node, fed in
	// turn; both are closed again whatever happens.
	open := func(url string) (feed func() error, closeIt func() error, err error) {
		var info server.SessionInfo
		status, reply, _, err := cl.do(ctx, http.MethodPost, url+"/sessions", openBody)
		if err != nil || status != http.StatusOK || json.Unmarshal(reply, &info) != nil {
			return nil, nil, fmt.Errorf("open session at %s: status %d: %v", url, status, err)
		}
		f := 0
		feed = func() error {
			f = (f + 1) % len(plan.feeds[0])
			status, _, _, err := cl.do(ctx, http.MethodPost, url+"/sessions/"+info.Session+"/feed", plan.feeds[0][f])
			l.check(err == nil && status == http.StatusOK)
			return err
		}
		closeIt = func() error {
			_, _, _, err := cl.do(ctx, http.MethodDelete, url+"/sessions/"+info.Session, nil)
			return err
		}
		return feed, closeIt, nil
	}
	routed, closeRouted, err := open(c.front.url)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, closeRouted()) }()
	straight, closeStraight, err := open(c.nodes[0].URL)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, closeStraight()) }()
	shipped := func() int64 { return telemetry.NewClusterCollector(c.reg).CheckpointsShipped.Value() }
	base := shipped()
	viaRouter, direct, err = l.timePairs(1, time.Microsecond, routed, straight)
	if err != nil {
		return err
	}
	got := shipped() - base
	l.check(got == int64(len(viaRouter)))
	l.count("cluster.feed_hop_us", quietDiff(viaRouter, direct))
	l.count("cluster.checkpoints_shipped", float64(got))
	return nil
}
