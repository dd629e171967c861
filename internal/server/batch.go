package server

import (
	"context"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// batcher coalesces concurrent small /match requests against one rule
// set into generations that share one worker slot and one run per
// distinct input. Members accumulate into the current generation until
// the window elapses or a size/byte cap trips; the flush then runs each
// distinct input through Automaton.RunContext, as a lone /match does,
// and fans the per-request results back out.
//
// Lock order: batcher.mu is a leaf (rank 85 in the lockorder table) —
// nothing blocking, tracing, or metric-flavored happens under it; all
// flush work runs after release.
type batcher struct {
	s  *Server
	rs *ruleset

	mu     sync.Mutex
	cur    *batchGen
	nextID uint64
}

// batchGen is one accumulating generation of members. Exactly one of
// three paths flushes it: the window timer, the member whose arrival
// trips a cap, or nobody yet (it is still b.cur). Members are stored by
// value in one preallocated array and results are delivered by closing
// ready once every member's outcome is in place, so steady-state
// batching allocates per generation, not per member.
type batchGen struct {
	id      uint64
	members []batchMember
	bytes   int64
	// timer and detached are an arm/stop handshake kept outside
	// batcher.mu so the leaf-lock discipline holds: the creator arms the
	// window timer after releasing the lock, and a member that trips a
	// cap marks the generation detached and stops whatever timer is
	// published by then. Whichever side runs second sees the other's
	// write, so a detached generation's timer is always stopped (a
	// too-late Stop is harmless — flushTimer no-ops on detached gens).
	timer    atomic.Pointer[time.Timer]
	detached atomic.Bool
	// ready is closed by the flush after every member's outcome is
	// final AND every machine lease is back in the pool; members read
	// their slot only after the close, so the array is never appended
	// to and read concurrently.
	ready chan struct{}
}

// batchMember is one enqueued request. The member goroutine owns rt and
// sp; out is written by the flush before ready is closed and read by
// the member after, with the close as the ordering edge. input is the
// request's payload kept as a string, the key of the flush's hot-key
// dedup; it becomes bytes once per distinct input, right before its run.
type batchMember struct {
	input string
	rt    *telemetry.ReqTrace
	sp    *telemetry.Span
	enq   time.Time
	out   batchOutcome
}

type batchOutcome struct {
	// resp is the member's ready-made response. Members of one batch that
	// carried byte-identical inputs share ONE response value: the match
	// array and stats are converted to wire form once per unique input
	// and handed out read-only, so a 64-duplicate hot-key batch pays for
	// one conversion, not 64. Responses are immutable by convention on
	// every serving path (transports marshal them; in-process callers
	// must not mutate them).
	resp *MatchResponse
	err  error
	// settled marks an outcome delivered early (a per-member seam fault)
	// so the flush-panic recovery can tell failed members from ones it
	// still owes an answer.
	settled bool
}

// batchBytes bounds batching eligibility and flush size: a request
// larger than this bypasses the batcher, and a batch whose total payload
// reaches it flushes immediately.
const batchBytes = 256 << 10

// batchEligible decides whether a match request may coalesce. Sharded
// and oversize requests bypass; so do deadline-critical ones — a
// request whose remaining budget is within a few windows of expiry
// cannot afford to sit out the coalescing wait.
func (s *Server) batchEligible(ctx context.Context, req MatchRequest, n int64) bool {
	if req.Shards > 1 || n > batchBytes {
		return false
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 4*s.cfg.BatchWindow {
		return false
	}
	return true
}

// matchBatched enqueues the request on the rule set's batcher and waits
// for its outcome. The wait is recorded as a "batch" stage span carrying
// the batch id, final size, and this member's coalescing wait.
func (s *Server) matchBatched(ctx context.Context, rt *telemetry.ReqTrace, b *batcher, input string) (*MatchResponse, error) {
	sp := rt.StartStage("batch")
	g, idx := b.enqueue(input, rt, sp)
	select {
	case <-g.ready:
		sp.End()
		out := &g.members[idx].out
		if out.err != nil {
			return nil, out.err
		}
		s.col.MatchInputBytes.Add(int64(len(input)))
		s.col.MatchReports.Add(int64(len(out.resp.Matches)))
		return out.resp, nil
	case <-ctx.Done():
		// The flush still settles this member's slot; only this waiter
		// gives up. Its place in the batch is wasted, not corrupted.
		sp.End()
		s.col.Timeouts.Inc()
		return nil, errc(http.StatusGatewayTimeout, ctx.Err(), "canceled while batched: %v", ctx.Err())
	}
}

// enqueue adds a member to the current generation, opening a new one
// (with its window timer) when none is accumulating, and returns the
// generation plus the member's slot index. The member whose arrival
// trips the size or byte cap detaches the generation and starts its
// flush on a goroutine of its own (the member itself must stay
// cancellable while it waits on g.ready), as the window path flushes on
// time.AfterFunc's.
func (b *batcher) enqueue(input string, rt *telemetry.ReqTrace, sp *telemetry.Span) (*batchGen, int) {
	b.mu.Lock()
	g := b.cur
	created := false
	if g == nil {
		b.nextID++
		g = &batchGen{
			id:      b.nextID,
			members: make([]batchMember, 0, b.s.cfg.BatchMax),
			ready:   make(chan struct{}),
		}
		b.cur = g
		// The enqueuing member's operation is already registered with
		// s.ops (Match ran begin()), so the counter is positive and this
		// Add cannot race a drain's Wait.
		b.s.ops.Add(1)
		created = true
	}
	idx := len(g.members)
	g.members = append(g.members, batchMember{input: input, rt: rt, sp: sp, enq: time.Now()})
	g.bytes += int64(len(input))
	full := len(g.members) >= b.s.cfg.BatchMax || g.bytes >= batchBytes
	if full {
		b.cur = nil
	}
	b.mu.Unlock()
	if created && !full {
		// Armed only after the generation is installed — a timer firing
		// before installation would see b.cur != g, no-op, and never come
		// back, leaving a window-only generation waiting forever.
		tm := time.AfterFunc(b.s.cfg.BatchWindow, func() { b.flushTimer(g) })
		g.timer.Store(tm)
		if g.detached.Load() {
			tm.Stop()
		}
	}
	if full {
		g.detached.Store(true)
		if tm := g.timer.Load(); tm != nil {
			tm.Stop()
		}
		go b.flush(g) // holds the generation's s.ops entry until it returns, so a drain waits for it
	}
	return g, idx
}

// flushTimer is the window-expiry path. If a cap already detached the
// generation the timer loses the race and does nothing.
func (b *batcher) flushTimer(g *batchGen) {
	b.mu.Lock()
	own := b.cur == g
	if own {
		b.cur = nil
	}
	b.mu.Unlock()
	if own {
		b.flush(g)
	}
}

// flush runs one generation: per-member fault seam, one worker slot,
// one run per distinct input, then one broadcast delivery. A seam fault
// fails only its member, and a refused lease or a run panic only the
// members that sent that input; no slot or a canceled run fails the
// batch. ready is closed in a defer, after every machine is back in the
// pool and after panic recovery has settled every outstanding member,
// so lease accounting is settled before any member proceeds and nobody
// waits forever.
func (b *batcher) flush(g *batchGen) {
	s := b.s
	defer s.ops.Done()
	defer func() {
		// A flush panic (outside the per-member guards) must not strand
		// the waiters: fail every member that has no outcome yet.
		if r := recover(); r != nil {
			s.col.Panics.Inc()
			err := Errorf(http.StatusInternalServerError, "batch flush panic: %v", r)
			for i := range g.members {
				if !g.members[i].out.settled {
					g.members[i].out = batchOutcome{err: err, settled: true}
				}
			}
		}
		close(g.ready)
	}()

	now := time.Now()
	size := int64(len(g.members))
	s.col.BatchSize.ObserveInt(size)
	s.col.BatchedRequests.Add(size)
	for i := range g.members {
		mb := &g.members[i]
		s.col.BatchWait.Observe(now.Sub(mb.enq).Seconds())
		mb.sp.SetAttr("batch_id", int64(g.id))
		mb.sp.SetAttr("batch_size", size)
		mb.sp.SetAttr("wait_us", now.Sub(mb.enq).Microseconds())
	}

	// Flush-time injection point: fires once per member, so a fault here
	// fails exactly one member while the rest of the batch proceeds.
	alive := make([]int, 0, len(g.members))
	for i := range g.members {
		if err := s.checkBatchMember(&g.members[i]); err != nil {
			g.members[i].out = batchOutcome{err: err, settled: true}
			continue
		}
		alive = append(alive, i)
	}
	if len(alive) == 0 {
		return
	}

	// One worker slot serves the whole batch. The members' transport
	// contexts stay out of the runs deliberately: one disconnecting
	// client must not cancel its batch-mates' scans.
	release, err := s.acquireSlot(context.Background())
	if err != nil {
		for _, i := range alive {
			g.members[i].out = batchOutcome{err: err, settled: true}
		}
		return
	}
	defer release()
	runCtx, cancel := s.opCtx(context.Background())
	defer cancel()
	// Hot-key dedup: members of one batch carrying byte-identical inputs
	// share a single run and then share its response — the scan is
	// deterministic, so one run of the bytes IS every duplicate's
	// bit-identical answer. first holds, per distinct input, the member
	// that sent it first; share maps each live member to its input.
	first := make([]int, 0, len(alive))
	share := make([]int, len(alive))
	seed := maphash.MakeSeed()
	seen := make(map[uint64]int, len(alive))
	for k, i := range alive {
		in := g.members[i].input
		h := maphash.String(seed, in)
		u, dup := seen[h]
		if !dup || g.members[first[u]].input != in {
			u = len(first)
			first = append(first, i)
			seen[h] = u
		}
		share[k] = u
	}
	outs := make([]batchOutcome, len(first))
	for u, i := range first {
		outs[u] = s.runInput(runCtx, b.rs, &g.members[i])
		if outs[u].err != nil && runCtx.Err() != nil {
			// The deadline is the batch's: it abandons every input left,
			// counted as one timeout.
			s.col.Timeouts.Inc()
			err := errc(http.StatusGatewayTimeout, runCtx.Err(), "batched run canceled: %v", runCtx.Err())
			for ; u < len(outs); u++ {
				outs[u] = batchOutcome{err: err}
			}
			break
		}
	}
	for k, i := range alive {
		g.members[i].out = outs[share[k]]
		g.members[i].out.settled = true
	}
}

// runInput runs one distinct input of a batch as a lone /match runs:
// one RunContext, under the trace of the member that sent it first, so
// the lease and run stages and any fault the pool seam notes land on a
// trace that member's client can fetch. A refused lease or a panic
// fails only this input's members.
func (s *Server) runInput(ctx context.Context, rs *ruleset, mb *batchMember) (out batchOutcome) {
	defer func() {
		if r := recover(); r != nil {
			s.col.Panics.Inc()
			out = batchOutcome{err: Errorf(http.StatusInternalServerError, "batched run panic: %v", r)}
		}
	}()
	ms, st, err := rs.a.RunContext(telemetry.WithReqTrace(ctx, mb.rt), []byte(mb.input))
	if err != nil {
		return batchOutcome{err: errc(http.StatusInternalServerError, err, "batched run: %v", err)}
	}
	return batchOutcome{resp: &MatchResponse{Matches: ms, Stats: wireStats(st)}}
}

// checkBatchMember fires the server.batch.flush seam for one member,
// converting an injected error or panic into that member's failure. The
// seam notes the member's trace before ready is closed, so fault
// accounting never races the member's finishTrace.
func (s *Server) checkBatchMember(mb *batchMember) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.col.Panics.Inc()
			err = Errorf(http.StatusInternalServerError, "batch member panic: %v", r)
		}
	}()
	if err := faults.Check(mb.rt, "server.batch.flush"); err != nil {
		return errc(http.StatusInternalServerError, err, "batch flush: %v", err)
	}
	return nil
}
