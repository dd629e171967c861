package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

const (
	smallPayloads    = 256
	smallPayloadSize = 1 << 10
)

// smallPlan is what serve-small and session-stream share: the small
// rule set compiled by the bench itself (the oracle, and the lease the
// traced run replays through), its placement, and the request corpus.
type smallPlan struct {
	a0  *ca.Automaton
	art *artifact
	pl  *mapper.Placement

	payloads []string
	bodies   [][]byte // /match request documents, one per payload
	want     []digest

	// big is every payload concatenated (256 KiB): one /match with
	// shards = C over it is the wire workloads' sharded request.
	bigBody []byte
	bigWant digest
	bigSize int

	clients int
}

func newSmallPlan(ctx context.Context, cfg *config) (*smallPlan, error) {
	compile := func() (*ca.Automaton, error) { return ca.CompileRegex(smallRules, ca.Options{}) }
	a0, err := compile()
	if err != nil {
		return nil, err
	}
	art, err := newArtifact(compile)
	if err != nil {
		return nil, err
	}
	n, err := regexc.CompileSet(smallRules, regexc.Options{})
	if err != nil {
		return nil, err
	}
	pl, err := mapNFA(n)
	if err != nil {
		return nil, err
	}
	p := &smallPlan{a0: a0, art: art, pl: pl, clients: cfg.clients}
	rng := rand.New(rand.NewSource(cfg.seed))
	digestFor := func(input string) (digest, error) {
		ms, _, err := a0.RunContext(ctx, []byte(input))
		return digestMatches(ms), err
	}
	for i := 0; i < smallPayloads; i++ {
		in := smallPayload(rng, smallPayloadSize)
		body, err := json.Marshal(server.MatchRequest{Ruleset: "small", Input: in})
		if err != nil {
			return nil, err
		}
		d, err := digestFor(in)
		if err != nil {
			return nil, err
		}
		p.payloads = append(p.payloads, in)
		p.bodies = append(p.bodies, body)
		p.want = append(p.want, d)
	}
	big := strings.Join(p.payloads, "")
	p.bigSize = len(big)
	if p.bigBody, err = json.Marshal(server.MatchRequest{Ruleset: "small", Input: big, Shards: cfg.clients}); err != nil {
		return nil, err
	}
	if p.bigWant, err = digestFor(big); err != nil {
		return nil, err
	}
	if cfg.corruptOracle {
		for i := range p.want {
			p.want[i].sum ^= 1
		}
		p.bigWant.sum ^= 1
	}
	return p, nil
}

// matchOK checks one /match reply against the digest precomputed for
// its payload.
func matchOK(status int, reply []byte, err error, want digest) bool {
	if err != nil || status != http.StatusOK {
		return false
	}
	var mr server.MatchResponse
	if json.Unmarshal(reply, &mr) != nil {
		return false
	}
	return wireDigest(mr.Matches) == want
}

// tailAfter is how much closed loop passes between two sharded requests:
// one is 6 ms through the server and 15 ms through the router, as long
// as a round.
const tailAfter = 40 * time.Millisecond

// shardedTail ends a wire round of length d with one whole-corpus
// sharded request, whose throughput is that round's shard_mb_per_s, if
// the rounds since the last one (sinceTail adds them up) come to
// tailAfter.
func (p *smallPlan) shardedTail(ctx context.Context, cl *wireClient, url string, d time.Duration, sinceTail *time.Duration, res *roundResult) {
	if *sinceTail += d; *sinceTail < tailAfter {
		return
	}
	*sinceTail = 0
	status, reply, lat, err := cl.do(ctx, http.MethodPost, url+"/match", p.bigBody)
	res.attempted++
	if !matchOK(status, reply, err, p.bigWant) {
		res.failed++
	}
	res.values["shard_mb_per_s"] = mbPerS(int64(p.bigSize), lat)
}

func prepareServeSmall(ctx context.Context, cfg *config) (*prepared, error) {
	p, err := newSmallPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &prepared{
		setup: func(ctx context.Context) (instance, error) {
			// The default Config, but for a registry of its own so that
			// repeated set-ups do not share counters.
			srv := server.New(server.Config{Registry: telemetry.NewRegistry()})
			in := &serveInstance{smallPlan: p, srv: srv, cl: newWireClient(p.clients)}
			if _, err := srv.Compile(ctx, "small", server.CompileRequest{Patterns: smallRules}); err != nil {
				return nil, closeAfter(ctx, in, err)
			}
			front, err := serveHTTP(srv.Handler())
			if err != nil {
				return nil, closeAfter(ctx, in, err)
			}
			in.front = front
			return in, nil
		},
		artifact: p.art,
	}, nil
}

// closeAfter tears down a half-built instance and returns the error
// that stopped its set-up.
func closeAfter(ctx context.Context, in instance, err error) error {
	_ = closeInstance(ctx, in) // the set-up error is the one to report
	return err
}

type serveInstance struct {
	*smallPlan
	srv       *server.Server
	front     *httpFront
	cl        *wireClient
	sinceTail time.Duration
}

func (s *serveInstance) round(ctx context.Context, d time.Duration, tr *tracer) (roundResult, error) {
	var res roundResult
	loop, err := closedLoop(ctx, s.clients, d, func(ctx context.Context, c, iter int, log *clientLog) error {
		i := (c*61 + iter) % len(s.bodies)
		req := tr.nextReq()
		root := tr.begin("http POST /match", -1, req, false)
		status, reply, lat, err := s.cl.do(ctx, http.MethodPost, s.front.url+"/match", s.bodies[i])
		tr.end(root)
		log.record(lat, matchOK(status, reply, err, s.want[i]))
		if tr != nil && req%sampleEvery == 0 {
			return s.replay(ctx, tr, req, root, i)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	n := int64(len(loop.lat))
	res.attempted, res.failed = n, loop.failed
	res.values = map[string]float64{
		"req_per_s":     float64(n) / loop.wall.Seconds(),
		"req_p50_us":    micros(percentile(loop.lat, 0.50)),
		"req_p99_us":    micros(percentile(loop.lat, 0.99)),
		"scan_mb_per_s": mbPerS(n*smallPayloadSize, loop.wall),
	}
	res.primary = res.values["req_per_s"]
	s.shardedTail(ctx, s.cl, s.front.url, d, &s.sinceTail, &res)
	return res, nil
}

// replay re-runs payload i through each entry point inside the HTTP
// round trip: Server.Match in-process, then the facade's lease and
// Lease.RunContext, then the bare machine.
func (s *serveInstance) replay(ctx context.Context, tr *tracer, req int64, root int32, i int) error {
	match := tr.begin("server.Server.Match", root, req, true)
	_, err := s.srv.Match(ctx, server.MatchRequest{Ruleset: "small", Input: s.payloads[i]})
	tr.end(match)
	if err != nil {
		return err
	}
	return replayLeaseRun(ctx, tr, req, match, s.a0, []byte(s.payloads[i]), s.pl)
}

// replayLeaseRun records the facade and machine layers under parent:
// LeaseContext and Lease.RunContext as its children, and a bare
// machine's RunContext under the latter. The machine is built per
// replay: replays are one request in sampleEvery, and a machine of its
// own keeps concurrent clients from sharing one.
func replayLeaseRun(ctx context.Context, tr *tracer, req int64, parent int32, a *ca.Automaton, input []byte, pl *mapper.Placement) error {
	sp := tr.begin("ca.Automaton.LeaseContext", parent, req, true)
	l, err := a.LeaseContext(ctx)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer l.Release()
	run := tr.begin("ca.Lease.RunContext", parent, req, true)
	_, _, err = l.RunContext(ctx, input)
	tr.end(run)
	if err != nil {
		return err
	}
	return replayMachineRun(ctx, tr, req, run, pl, input)
}

// replayMachineRun records a bare machine's RunContext under parent.
func replayMachineRun(ctx context.Context, tr *tracer, req int64, parent int32, pl *mapper.Placement, input []byte) error {
	m, err := machine.New(pl, machine.Options{CollectMatches: true})
	if err != nil {
		return err
	}
	sp := tr.begin("machine.Machine.RunContext", parent, req, true)
	_, err = m.RunContext(ctx, input)
	tr.end(sp)
	return err
}

func (s *serveInstance) close(ctx context.Context) error {
	var first error
	if s.front != nil {
		first = s.front.shutdown(ctx)
	}
	if err := shutdownServer(ctx, s.srv); first == nil {
		first = err
	}
	s.cl.close()
	return first
}
