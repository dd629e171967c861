package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/cluster"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

const (
	sessionStreams = 8
	feedsPerHalf   = 16 // feeds before the suspend, and again after the resume
	feedBytes      = 2 << 10
)

// sessionPlan is session-stream's corpus: a few seeded streams cut into
// feeds, with the digest of one sequential run over each whole stream.
type sessionPlan struct {
	*smallPlan
	feeds [][][]byte // [stream][feed] request documents
	// streamWant is the digest of one sequential run over each stream.
	streamWant []digest
	// chunks are the same feeds as raw bytes, for the traced replay.
	chunks [][][]byte
}

func prepareSessionStream(ctx context.Context, cfg *config) (*prepared, error) {
	p, err := newSessionPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &prepared{
		setup:    func(ctx context.Context) (instance, error) { return startCluster(ctx, cfg, p) },
		artifact: p.art,
	}, nil
}

func newSessionPlan(ctx context.Context, cfg *config) (*sessionPlan, error) {
	sp, err := newSmallPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	p := &sessionPlan{smallPlan: sp}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5e5510))
	for s := 0; s < sessionStreams; s++ {
		var whole strings.Builder
		var feeds, chunks [][]byte
		for f := 0; f < 2*feedsPerHalf; f++ {
			chunk := smallPayload(rng, feedBytes)
			whole.WriteString(chunk)
			body, err := json.Marshal(server.FeedRequest{Chunk: chunk})
			if err != nil {
				return nil, err
			}
			feeds = append(feeds, body)
			chunks = append(chunks, []byte(chunk))
		}
		ms, _, err := sp.a0.RunContext(ctx, []byte(whole.String()))
		if err != nil {
			return nil, err
		}
		d := digestMatches(ms)
		if cfg.corruptOracle {
			d.sum ^= 1
		}
		p.feeds = append(p.feeds, feeds)
		p.chunks = append(p.chunks, chunks)
		p.streamWant = append(p.streamWant, d)
	}
	return p, nil
}

// clusterInstance is a router in front of two WAL-backed nodes, with
// clients talking to the router's handler over loopback.
type clusterInstance struct {
	*sessionPlan
	nodes  []*cluster.LocalNode
	dirs   []string
	router *cluster.Router
	rpc    *http.Transport // the router's own connections to its nodes
	reg    *telemetry.Registry
	front  *httpFront
	cl     *wireClient
	// sinceTail is the closed loop since the last sharded request.
	sinceTail time.Duration
	// shadow is the traced run's in-process stand-in: a stream of the
	// bench's own automaton per client, fed the sampled chunks.
	shadow []*ca.Stream
}

func startCluster(ctx context.Context, cfg *config, p *sessionPlan) (_ *clusterInstance, err error) {
	in := &clusterInstance{
		sessionPlan: p,
		reg:         telemetry.NewRegistry(),
		rpc:         &http.Transport{MaxIdleConnsPerHost: 2 * cfg.clients},
		cl:          newWireClient(cfg.clients),
		shadow:      make([]*ca.Stream, cfg.clients),
	}
	defer func() {
		if err != nil {
			err = closeAfter(ctx, in, err)
		}
	}()
	in.router = cluster.NewRouter(cluster.Config{Registry: in.reg, Client: &http.Client{Transport: in.rpc}})
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n, err := cluster.StartLocalNode(id, server.Config{Registry: telemetry.NewRegistry()})
		if err != nil {
			return nil, err
		}
		in.nodes = append(in.nodes, n)
		dir, err := scratchDir(cfg, "wal-*")
		if err != nil {
			return nil, err
		}
		in.dirs = append(in.dirs, dir)
		if _, err := n.Srv.AttachWAL(dir); err != nil {
			return nil, err
		}
		if err := in.router.AddNode(ctx, id, n.URL); err != nil {
			return nil, err
		}
	}
	if _, err := in.router.Compile(ctx, "small", server.CompileRequest{Patterns: smallRules}); err != nil {
		return nil, err
	}
	if in.front, err = serveHTTP(in.router.Handler()); err != nil {
		return nil, err
	}
	return in, nil
}

var openBody = []byte(`{"ruleset":"small"}`)

// sessionOp is one request of a session and what the client learns
// from it.
type sessionOp struct {
	c   *clusterInstance
	tr  *tracer
	log *clientLog
	// parent is the session's root span.
	parent int32
}

// call sends one session request, records its latency and span, and
// decodes a 2xx reply into out. ok is false for transport errors and
// non-2xx replies; those are already counted as failures.
func (o *sessionOp) call(ctx context.Context, name, method, path string, body []byte, out any) (ok bool, span int32, req int64) {
	req = o.tr.nextReq()
	span = o.tr.begin("http "+name, o.parent, req, false)
	status, reply, lat, err := o.c.cl.do(ctx, method, o.c.front.url+path, body)
	o.tr.end(span)
	ok = err == nil && status == http.StatusOK && (out == nil || json.Unmarshal(reply, out) == nil)
	o.log.record(lat, ok)
	return ok, span, req
}

// session runs one whole session on stream s: open, feeds, suspend,
// resume from the snapshot, feeds, close. The matches delivered across
// the cut must be exactly those of one sequential run; a mismatch is
// one more failed operation.
func (c *clusterInstance) session(ctx context.Context, client, s int, tr *tracer, log *clientLog) (fed int64, err error) {
	op := &sessionOp{c: c, tr: tr, log: log, parent: tr.begin("session", -1, tr.nextReq(), false)}
	defer tr.end(op.parent)
	var got digest
	var info server.SessionInfo
	if ok, _, _ := op.call(ctx, "POST /sessions", http.MethodPost, "/sessions", openBody, &info); !ok {
		return 0, nil
	}
	feed := func(f int) bool {
		var fr server.FeedResponse
		ok, span, req := op.call(ctx, "POST /sessions/{id}/feed", http.MethodPost, "/sessions/"+info.Session+"/feed", c.feeds[s][f], &fr)
		if !ok {
			return false
		}
		for _, m := range fr.Matches {
			got.add(m.Offset, int32(m.Pattern))
		}
		fed += feedBytes
		if tr != nil && req%sampleEvery == 0 {
			err = c.replayFeed(ctx, tr, req, span, client, c.chunks[s][f])
		}
		return err == nil
	}
	for f := 0; f < feedsPerHalf; f++ {
		if !feed(f) {
			return fed, err
		}
	}
	var snap server.SuspendResponse
	if ok, _, _ := op.call(ctx, "POST /sessions/{id}/suspend", http.MethodPost, "/sessions/"+info.Session+"/suspend", nil, &snap); !ok {
		return fed, nil
	}
	resume, err := json.Marshal(server.OpenSessionRequest{Ruleset: "small", SnapshotB64: snap.SnapshotB64})
	if err != nil {
		return fed, err
	}
	if ok, _, _ := op.call(ctx, "POST /sessions (resume)", http.MethodPost, "/sessions", resume, &info); !ok {
		return fed, nil
	}
	for f := feedsPerHalf; f < 2*feedsPerHalf; f++ {
		if !feed(f) {
			return fed, err
		}
	}
	op.call(ctx, "DELETE /sessions/{id}", http.MethodDelete, "/sessions/"+info.Session, nil, nil)
	if got != c.streamWant[s] {
		log.failed++
	}
	return fed, nil
}

// replayFeed re-feeds a sampled chunk through the layers inside the
// HTTP round trip: Stream.FeedContext on the client's shadow stream,
// and a bare machine's RunContext under it. (The node's Server.Feed is
// not replayed: a second feed of the same session would advance it.)
func (c *clusterInstance) replayFeed(ctx context.Context, tr *tracer, req int64, parent int32, client int, chunk []byte) error {
	if c.shadow[client] == nil {
		st, err := c.a0.StreamContext(ctx)
		if err != nil {
			return err
		}
		c.shadow[client] = st
	}
	sp := tr.begin("ca.Stream.FeedContext", parent, req, true)
	_, err := c.shadow[client].FeedContext(ctx, chunk)
	tr.end(sp)
	if err != nil {
		return err
	}
	return replayMachineRun(ctx, tr, req, sp, c.pl, chunk)
}

func (c *clusterInstance) round(ctx context.Context, d time.Duration, tr *tracer) (roundResult, error) {
	var res roundResult
	fed := make([]int64, c.clients)
	loop, err := closedLoop(ctx, c.clients, d, func(ctx context.Context, client, iter int, log *clientLog) error {
		n, err := c.session(ctx, client, (client*3+iter)%len(c.feeds), tr, log)
		fed[client] += n
		return err
	})
	if err != nil {
		return res, err
	}
	var bytesFed int64
	for _, n := range fed {
		bytesFed += n
	}
	n := int64(len(loop.lat))
	res.attempted, res.failed = n, loop.failed
	res.values = map[string]float64{
		"req_per_s":     float64(n) / loop.wall.Seconds(),
		"req_p50_us":    micros(percentile(loop.lat, 0.50)),
		"req_p99_us":    micros(percentile(loop.lat, 0.99)),
		"scan_mb_per_s": mbPerS(bytesFed, loop.wall),
	}
	res.primary = res.values["req_per_s"]
	c.shardedTail(ctx, c.cl, c.front.url, d, &c.sinceTail, &res)
	return res, nil
}

func (c *clusterInstance) close(ctx context.Context) error {
	var errs []error
	for _, st := range c.shadow {
		if st != nil {
			st.Close()
		}
	}
	if c.front != nil {
		errs = append(errs, c.front.shutdown(ctx))
	}
	if c.router != nil {
		errs = append(errs, c.router.Shutdown(ctx))
	}
	for _, n := range c.nodes {
		errs = append(errs, n.Stop(ctx))
	}
	c.rpc.CloseIdleConnections()
	c.cl.close()
	for _, dir := range c.dirs {
		errs = append(errs, os.RemoveAll(dir))
	}
	return errors.Join(errs...)
}
