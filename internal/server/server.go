// Package server is the match-serving subsystem: it compiles named rule
// sets through the cacheautomaton front-ends and serves them to
// concurrent clients over HTTP/JSON and a line-framed TCP protocol, with
// one-shot batched matching, long-lived streaming sessions (suspendable
// and resumable across servers — session migration), bounded-worker
// backpressure, per-request limits, graceful drain, and telemetry wired
// into internal/telemetry.
//
// The concurrency story leans entirely on the library's machine-lease
// contract: every one-shot match leases a private simulator machine for
// the duration of the call, and every session owns a leased Stream, so
// any number of handler goroutines share one compiled Automaton safely.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxBodyBytes caps request bodies and decoded payloads (default 8 MiB).
	MaxBodyBytes int64
	// MatchWorkers bounds concurrently executing one-shot match requests
	// (default GOMAXPROCS).
	MatchWorkers int
	// QueueDepth bounds match requests waiting for a worker slot; arrivals
	// beyond it are shed immediately with 503 (default 4×MatchWorkers).
	QueueDepth int
	// QueueWait bounds how long a match request waits for a worker slot
	// before 503 (default 2s).
	QueueWait time.Duration
	// MaxShards caps the client-requested shard count of one /match
	// (default GOMAXPROCS). Requests asking for more are clamped, not
	// rejected: shards beyond the core count only cost memory.
	MaxShards int
	// MaxSessions bounds concurrently open streaming sessions (default 1024).
	MaxSessions int
	// SessionIdle reaps sessions idle longer than this (default 5m;
	// negative disables the reaper).
	SessionIdle time.Duration
	// RequestTimeout bounds the execution of one Match or Feed once it
	// starts running (queue wait is bounded separately by QueueWait).
	// Scans check the deadline at chunk granularity, so a timed-out
	// request stops within machine.ContextCheckBytes symbols and returns
	// its leased machines. 0 disables the server-side deadline; client
	// disconnects still cancel via the request context.
	RequestTimeout time.Duration
	// Registry receives the server's metrics (nil uses telemetry.Default()).
	Registry *telemetry.Registry
	// SlowRequest is the flight recorder's slow threshold: requests at or
	// above it are pinned in the trace ring and logged (default 250ms;
	// negative disables slow pinning).
	SlowRequest time.Duration
	// TraceRingSize bounds the flight recorder's retained traces — the
	// ring keeps the last TraceRingSize requests plus, separately, the
	// last TraceRingSize slow/error/faulted ones (default
	// telemetry.DefaultTraceRingSize; negative disables request tracing
	// entirely).
	TraceRingSize int
	// Logger receives structured serving logs with trace-id correlation
	// (nil discards them).
	Logger *slog.Logger
	// BatchWindow enables small-request coalescing: eligible /match
	// requests against the same rule set that arrive within this window
	// share one worker slot and one run per distinct payload. 0 (the
	// default) disables batching entirely and preserves the per-request
	// lease path exactly.
	BatchWindow time.Duration
	// BatchMax caps how many requests one batch packs; reaching it
	// flushes immediately without waiting out the window (default 64).
	BatchMax int
	// AdminToken guards the mutating admin endpoints (today: rule-set
	// reload). Empty leaves them open — matching the trust model of the
	// rest of the API; set, they require "Authorization: Bearer <token>".
	AdminToken string
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MatchWorkers <= 0 {
		c.MatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MatchWorkers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.MaxShards <= 0 {
		c.MaxShards = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionIdle == 0 {
		c.SessionIdle = 5 * time.Minute
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.BatchWindow > 0 && c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	return c
}

// Server is the match-serving core, shared by the HTTP and TCP
// transports.
type Server struct {
	cfg Config
	col *telemetry.ServerCollector
	// runs is the RunObserver of every automaton the server builds or
	// loads, so /metrics carries the kernel layer (ca_run_*, ca_matches_total,
	// the activity histograms, the G-switch counters) beside ca_server_*.
	runs *telemetry.MachineCollector
	log  *slog.Logger
	// ring is the flight recorder: completed request traces land here
	// (nil when Config.TraceRingSize < 0 disables tracing).
	ring *telemetry.TraceRing
	// host mounts the op table on this server for both transports.
	host *Host

	mu       sync.RWMutex
	rulesets map[string]*ruleset
	sessions map[string]*session
	// building counts the installs in progress per rule-set name — what
	// /readyz reports as "compiling" / "reloading" (see ReadyDetail).
	building map[string]int
	draining bool
	// nextID numbers new sessions (addSession); AttachWAL raises it to
	// the WAL's session mark.
	nextID uint64
	// cache, when non-nil, is the content-addressed compile cache
	// (AttachCache). Set once before serving; guarded by mu for the
	// attach itself. install consults it before compiling and stores what
	// it compiled or was shipped, so WAL replay loads the automaton
	// instead of paying the compile again.
	cache *caformat.Cache

	// wal, when non-nil, is the session write-ahead log: stored by
	// AttachWAL once replay is done, swapped out by Shutdown before it
	// closes the log. mu does not guard it.
	wal atomic.Pointer[wal]

	// reloadMu serializes rule-set reloads so concurrent reloads of the
	// same name can't interleave compile-then-swap and publish a stale
	// version. It ranks above every other lock (see the cavet lockorder
	// table): Reload acquires it before delegating to install, which
	// takes Server.mu and the WAL lock.
	reloadMu sync.Mutex

	// ready is the readiness signal behind /readyz: the daemon flips it
	// false at drain start, before any listener closes, so load
	// balancers stop routing while in-flight work still completes.
	ready atomic.Bool

	// slots is the bounded match-worker pool; queued counts waiters.
	slots  chan struct{}
	queued int64 // guarded by queueMu
	qMu    sync.Mutex

	// ops tracks in-flight core operations for graceful drain.
	ops sync.WaitGroup

	// reaper lifecycle.
	stopReaper chan struct{}
	reaperDone chan struct{}
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		col:        telemetry.NewServerCollector(cfg.Registry),
		runs:       telemetry.NewMachineCollector(cfg.Registry),
		log:        cfg.Logger,
		rulesets:   make(map[string]*ruleset),
		sessions:   make(map[string]*session),
		building:   make(map[string]int),
		ring:       telemetry.NewTraceRing(cfg.TraceRingSize, cfg.SlowRequest),
		slots:      make(chan struct{}, cfg.MatchWorkers),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	s.host = &Host{
		API: s, MaxBody: cfg.MaxBodyBytes, AdminToken: cfg.AdminToken, Fallback: http.StatusInternalServerError,
		Ring: s.ring, Col: s.col, Finish: s.finishTrace,
	}
	s.ready.Store(true)
	if cfg.SessionIdle > 0 {
		go s.reapIdleSessions()
	} else {
		close(s.reaperDone)
	}
	return s
}

// Ring exposes the flight recorder (nil when tracing is disabled). The
// daemon and tests use it to look up traces by id.
func (s *Server) Ring() *telemetry.TraceRing { return s.ring }

// newTrace opens a request trace for one operation, or returns nil (a
// valid no-op trace) when tracing is disabled.
func (s *Server) newTrace(op string) *telemetry.ReqTrace {
	if s.ring == nil {
		return nil
	}
	return telemetry.NewReqTrace(op)
}

// finishTrace closes a request trace, lands it in the flight-recorder
// ring, feeds the per-stage and per-ruleset latency histograms, and
// emits a structured log line for non-ok or slow requests. It returns
// the completed report (nil when rt is nil). The transports call this
// exactly once per traced request.
func (s *Server) finishTrace(rt *telemetry.ReqTrace, outcome, msg string) *telemetry.ReqReport {
	if rt == nil {
		return nil
	}
	rt.Finish(outcome, msg)
	rep := rt.Report()
	if s.ring != nil {
		s.ring.Add(rep)
	}
	for _, st := range rep.Stages {
		s.col.StageSeconds.With(st.Name).Observe(st.DurationMS / 1e3)
	}
	// Only a rule set the server holds gets its own series: a name a
	// client made up (a 404, a rejected install) shares "none", so it
	// cannot use up the vec's bounded label set. The trace keeps the name.
	s.mu.RLock()
	_, held := s.rulesets[rep.Ruleset]
	s.mu.RUnlock()
	label := "none"
	if held {
		label = rep.Ruleset
	}
	s.col.RulesetSeconds.With(label).Observe(rep.DurationMS / 1e3)
	slowMS := float64(s.cfg.SlowRequest) / float64(time.Millisecond)
	slow := s.cfg.SlowRequest > 0 && rep.DurationMS >= slowMS
	if slow {
		s.col.SlowRequests.Inc()
	}
	switch {
	case rep.Outcome != "ok":
		s.log.Warn("request finished",
			"trace", rep.ID, "op", rep.Op, "ruleset", rep.Ruleset,
			"outcome", rep.Outcome, "error", rep.Error, "duration_ms", rep.DurationMS)
	case slow:
		s.log.Info("slow request",
			"trace", rep.ID, "op", rep.Op, "ruleset", rep.Ruleset,
			"duration_ms", rep.DurationMS, "slow_ms", slowMS)
	}
	return rep
}

// AttachCache opens (creating if needed) the content-addressed compile
// cache in dir and wires it into install: every compile first looks up
// hash(rules, front-end, compile options) and loads the serialized
// automaton on a hit; misses compile and store the encoding for the next
// start, and a shipped artifact is stored under its definition's key the
// same way. Attach it before AttachWAL so WAL replay's recompiles hit the
// cache. Corrupted entries are evicted and recompiled (counted by
// ca_cache_errors_total), never a failed boot.
func (s *Server) AttachCache(dir string) error {
	c, err := caformat.NewCache(dir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache != nil {
		return fmt.Errorf("cache: already attached")
	}
	s.cache = c
	return nil
}

// opCtx applies the server-side execution deadline, when configured.
func (s *Server) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// begin registers one in-flight operation, rejecting it when the server
// is draining. Callers must call the returned func when done.
func (s *Server) begin() (func(), error) {
	s.mu.RLock()
	draining := s.draining
	if !draining {
		s.ops.Add(1)
	}
	s.mu.RUnlock()
	if draining {
		s.col.Rejected.Inc()
		return nil, Errorf(http.StatusServiceUnavailable, "server is draining")
	}
	return s.ops.Done, nil
}

// acquireSlot implements match backpressure: shed immediately when the
// wait queue is full, otherwise wait for a worker slot up to QueueWait
// (or the request context's deadline, whichever is sooner).
func (s *Server) acquireSlot(ctx context.Context) (func(), error) {
	s.qMu.Lock()
	if s.queued >= int64(s.cfg.QueueDepth) {
		s.qMu.Unlock()
		s.col.Rejected.Inc()
		return nil, Errorf(http.StatusServiceUnavailable, "overloaded: queue of %d match requests is full", s.cfg.QueueDepth)
	}
	s.queued++
	s.col.QueueDepth.Set(s.queued)
	s.qMu.Unlock()
	dequeue := func() {
		s.qMu.Lock()
		s.queued--
		s.col.QueueDepth.Set(s.queued)
		s.qMu.Unlock()
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		dequeue()
		return func() { <-s.slots }, nil
	case <-timer.C:
		dequeue()
		s.col.Rejected.Inc()
		return nil, Errorf(http.StatusServiceUnavailable, "overloaded: no worker slot within %v", s.cfg.QueueWait)
	case <-ctx.Done():
		dequeue()
		s.col.Rejected.Inc()
		return nil, Errorf(http.StatusServiceUnavailable, "canceled while queued: %v", ctx.Err())
	}
}

// Match runs a one-shot scan under the bounded worker pool. A
// telemetry.ReqTrace carried by ctx records queue admission, machine
// lease, and the scan itself as stage spans.
func (s *Server) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	rt := telemetry.ReqTraceFrom(ctx)
	rt.SetRuleset(req.Ruleset)
	if req.Ruleset == "" {
		return nil, Errorf(http.StatusBadRequest, "missing ruleset")
	}
	// The payload stays a string here: the batcher keys its hot-key
	// dedup on it, and either path makes bytes of it once, right before
	// its run.
	input := req.Input
	if req.InputB64 != "" {
		data, err := payload(req.Input, req.InputB64, s.cfg.MaxBodyBytes)
		if err != nil {
			return nil, err
		}
		input = string(data)
	} else if err := textPayloadErr(req.Input, s.cfg.MaxBodyBytes); err != nil {
		return nil, err
	}
	if req.Shards < 0 {
		return nil, Errorf(http.StatusBadRequest, "negative shards")
	}
	rs, err := s.ruleset(req.Ruleset)
	if err != nil {
		return nil, err
	}
	// Small unsharded requests coalesce into batches when batching is
	// on; oversize or deadline-critical requests take the per-request
	// path below unchanged.
	if rs.b != nil && s.batchEligible(ctx, req, int64(len(input))) {
		return s.matchBatched(ctx, rt, rs.b, input)
	}
	qsp := rt.StartStage("queue")
	release, err := s.acquireSlot(ctx)
	qsp.End()
	if err != nil {
		return nil, err
	}
	defer release()
	// Execution-phase injection point: fires after admission (slot held),
	// before any machine is leased, modeling an I/O fault at dispatch.
	if err := faults.Check(rt, "server.match"); err != nil {
		return nil, errc(http.StatusInternalServerError, err, "run: %v", err)
	}
	// The execution deadline starts once a worker slot is held; queue
	// wait is already bounded by QueueWait above.
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	var (
		ms []ca.Match
		st *ca.Stats
	)
	// Shards is client input: clamp it to server policy so one request
	// cannot demand an arbitrary number of simulator machines.
	shards := req.Shards
	if shards > s.cfg.MaxShards {
		shards = s.cfg.MaxShards
	}
	data := []byte(input)
	if shards > 1 {
		ms, st, err = rs.a.RunParallelContext(ctx, data, shards)
	} else {
		ms, st, err = rs.a.RunContext(ctx, data)
	}
	if err != nil {
		if ctx.Err() != nil {
			s.col.Timeouts.Inc()
			return nil, errc(http.StatusGatewayTimeout, ctx.Err(), "run canceled: %v", ctx.Err())
		}
		return nil, errc(http.StatusInternalServerError, err, "run: %v", err)
	}
	s.col.MatchInputBytes.Add(int64(len(input)))
	s.col.MatchReports.Add(int64(len(ms)))
	return &MatchResponse{Matches: ms, Stats: wireStats(st)}, nil
}

// LeaseStats sums the machine-lease accounting of every loaded rule
// set's pool. The serving invariant — checked by the chaos harness —
// is Gets == Puts + open sessions: every one-shot lease returned, every
// open session holding exactly one machine, nothing stranded by faults,
// panics or cancellations.
func (s *Server) LeaseStats() ca.LeaseStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total ca.LeaseStats
	for _, rs := range s.rulesets {
		st := rs.a.LeaseStats()
		total.Built += st.Built
		total.Gets += st.Gets
		total.Puts += st.Puts
		total.Hits += st.Hits
		total.Idle += st.Idle
	}
	return total
}

// Readyz reports readiness: whether the server should receive new
// traffic. It flips false at drain start (SetReady), before any
// listener closes, so load balancers stop routing while in-flight work
// still completes. Liveness (Healthz) stays truthful throughout.
func (s *Server) Readyz() bool {
	if !s.ready.Load() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.draining
}

// SetReady flips the readiness signal without affecting serving; the
// daemon calls SetReady(false) as the first step of its drain sequence.
func (s *Server) SetReady(ready bool) {
	s.ready.Store(ready)
}

// Healthz reports liveness.
func (s *Server) Healthz() Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	return Health{Status: status, Rulesets: len(s.rulesets), Sessions: len(s.sessions)}
}

// Shutdown drains the server: readiness flips false, new operations are
// refused with 503, and the call blocks until every in-flight operation
// has completed (so no delivered-but-unread matches are dropped) or ctx
// expires. Open sessions are then closed, returning their leased
// machines — their WAL checkpoints are deliberately kept (not
// tombstoned), so a graceful restart resumes them exactly like a crash
// recovery would. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.stopReaper)
	}
	<-s.reaperDone

	finished := make(chan struct{})
	go func() {
		s.ops.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		select { // prefer success when ops drained at the same instant
		case <-finished:
		default:
			err = ctx.Err()
		}
	}

	kept := 0
	s.eachSession(func(sess *session) {
		// keepCheckpoint: drained sessions must survive the restart.
		s.removeSession(nil, sess, true)
		kept++
	})
	s.log.InfoContext(ctx, "server drained", "sessions_kept", kept)

	if w := s.wal.Swap(nil); w != nil {
		// A failed final close can leave the last checkpoint record
		// unflushed; surface it unless the drain already failed.
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
