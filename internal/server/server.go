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
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/caformat"
	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/retry"
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
	// are packed into one batched machine sweep. 0 (the default) disables
	// batching entirely and preserves the per-request lease path exactly.
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

// session is one streaming session. The mutex serializes feeds (the
// underlying Stream is single-owner); lastUsed drives the idle reaper.
//
// Lock order: sess.mu may be held while taking Server.mu (removeSession
// does), so nothing may take sess.mu while holding Server.mu — with an
// RWMutex a queued writer blocks new readers, and the inverted order
// deadlocks the whole server. Snapshot session pointers under Server.mu
// first, release it, then lock each session.
type session struct {
	id      string
	ruleset string

	mu       sync.Mutex
	stream   *ca.Stream
	closed   bool
	lastUsed time.Time
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
	nextID   uint64
	// wal, when non-nil, is the session write-ahead log (AttachWAL).
	// Set once before serving; guarded by mu for the attach itself.
	wal *wal
	// cache, when non-nil, is the content-addressed compile cache
	// (AttachCache). Set once before serving; guarded by mu for the
	// attach itself. install consults it before compiling and stores what
	// it compiled or was shipped, so WAL replay loads the automaton
	// instead of paying the compile again.
	cache *caformat.Cache

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

// ReplayStats summarizes what AttachWAL recovered.
type ReplayStats struct {
	// Rulesets and Sessions count what was recompiled and resumed.
	Rulesets, Sessions int
	// SkippedSessions counts checkpoints that could not be resumed (their
	// ruleset failed to recompile, or the snapshot was rejected).
	SkippedSessions int
}

// AttachWAL opens (creating if needed) the session write-ahead log in
// dir, replays it — recompiling every logged rule set and resuming every
// checkpointed session under its original session id — and then starts
// logging this server's own state changes to it. Call it after New and
// before serving traffic; sessions resumed from the log continue
// bit-identically with the stream state they had at their last
// acknowledged feed (the paper's §2.9 suspend/resume state vector,
// made durable).
func (s *Server) AttachWAL(dir string) (*ReplayStats, error) {
	s.mu.RLock()
	attached := s.wal != nil
	s.mu.RUnlock()
	if attached {
		return nil, fmt.Errorf("wal: already attached")
	}
	w, recs, err := openWAL(dir, 0, s.col)
	if err != nil {
		return nil, err
	}
	st := &ReplayStats{}
	var maxID uint64
	for _, rec := range recs {
		if rec.Kind != "compile" || rec.Req == nil {
			continue
		}
		if _, err := s.Compile(context.Background(), rec.Name, *rec.Req); err != nil {
			s.log.Warn("wal replay: recompile failed", "ruleset", rec.Name, "error", err)
			continue // the checkpoints referencing it are counted skipped below
		}
		st.Rulesets++
	}
	for _, rec := range recs {
		if rec.Kind == "nextid" && rec.NextID > maxID {
			maxID = rec.NextID
		}
		if rec.Kind != "checkpoint" {
			continue
		}
		if n, ok := parseSessionID(rec.ID); ok && n > maxID {
			maxID = n
		}
		if s.resumeFromWAL(&rec) {
			st.Sessions++
		} else {
			st.SkippedSessions++
		}
	}
	s.col.WALReplayed.Add(int64(len(recs)))
	s.mu.Lock()
	if s.nextID < maxID {
		s.nextID = maxID
	}
	s.wal = w
	s.mu.Unlock()
	s.log.Info("wal replay finished",
		"records", len(recs), "rulesets", st.Rulesets,
		"sessions", st.Sessions, "skipped_sessions", st.SkippedSessions)
	return st, nil
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

// resumeFromWAL restores one checkpointed session, preserving its id so
// clients reconnect to the session they were feeding before the crash.
func (s *Server) resumeFromWAL(rec *walRecord) bool {
	rs, err := s.ruleset(rec.Ruleset)
	if err != nil {
		return false
	}
	snap, err := base64.StdEncoding.DecodeString(rec.SnapB64)
	if err != nil {
		return false
	}
	stream, err := rs.a.ResumeStreamContext(context.Background(), bytes.NewReader(snap))
	if err != nil {
		return false
	}
	sess := &session{id: rec.ID, ruleset: rec.Ruleset, stream: stream, lastUsed: time.Now()}
	s.mu.Lock()
	if _, dup := s.sessions[sess.id]; dup || len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		stream.Close()
		return false
	}
	s.sessions[sess.id] = sess
	s.col.SessionsActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	s.col.SessionsResumed.Inc()
	return true
}

// parseSessionID extracts the numeric counter from an "s%08d" id.
func parseSessionID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	return n, err == nil
}

// walAppend logs one record when a WAL is attached, recording the append
// as a "wal" stage span on rt (nil rt is fine — background callers like
// the reaper and Shutdown have no request trace). Append failures are
// already counted (ca_wal_errors_total) and must not fail the serving
// operation that triggered them: the client's response is the source of
// truth, the WAL is best-effort durability whose next checkpoint
// supersedes a lost one.
func (s *Server) walAppend(rt *telemetry.ReqTrace, rec walRecord) {
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	if w == nil {
		return
	}
	sp := rt.StartStage("wal")
	defer sp.End()
	s.walAppendRetry(rt, w, rec)
}

// walTombstoneRetry is the tombstone append policy: a handful of
// near-immediate attempts through the shared internal/retry helper (the
// same audited implementation the cluster layer uses for inter-node
// RPCs). Delays stay microscopic because appends may run under sess.mu.
var walTombstoneRetry = retry.Policy{
	MaxAttempts: 5,
	BaseDelay:   200 * time.Microsecond,
	MaxDelay:    2 * time.Millisecond,
}

// walAppendRetry is the span-free append core shared by walAppend and
// walCheckpoint (which record their own "wal" spans — exactly one per
// logged operation). Every failed injected append is annotated onto rt
// so the chaos harness can account for each fired fault.
func (s *Server) walAppendRetry(rt *telemetry.ReqTrace, w *wal, rec walRecord) {
	// Tombstones get retries where ordinary records don't: a lost
	// checkpoint is superseded by the session's next checkpoint, but a
	// lost close/delete tombstone has no successor record — replay would
	// resurrect state the client was told is gone.
	policy := retry.Policy{MaxAttempts: 1, BaseDelay: -1}
	if _, tombstone := rec.key(); tombstone {
		policy = walTombstoneRetry
	}
	attempts, err := policy.Attempts(context.Background(), func(context.Context) error {
		aerr := w.Append(rec)
		if aerr != nil && faults.IsInjected(aerr) {
			rt.Annotate("fault", "server.wal.append")
		}
		return aerr
	})
	if err != nil {
		s.log.Warn("wal append failed", "kind", rec.Kind, "attempts", attempts)
	}
}

// snapshotB64 serializes the session's architectural state in the one
// form the WAL, the router and clients hold it in, and says how many
// bytes it was before base64. Caller must hold sess.mu (or otherwise own
// the stream exclusively).
func (sess *session) snapshotB64() (snap string, size int, err error) {
	var buf bytes.Buffer
	if err := sess.stream.Suspend(&buf); err != nil {
		return "", 0, err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), buf.Len(), nil
}

// walCheckpoint logs a session's current architectural state so a
// crashed server resumes it from exactly this point, recorded as one
// "wal" stage span on rt (serialization plus append), and returns the
// snapshot it logged so a caller under the same lock need not serialize
// the same state again. Caller must hold sess.mu (or otherwise own the
// stream exclusively); the Suspend — which the paper's tiny state
// vectors make cheap — is skipped entirely, and "" returned, when no WAL
// is attached.
func (s *Server) walCheckpoint(rt *telemetry.ReqTrace, sess *session) string {
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	if w == nil {
		return ""
	}
	sp := rt.StartStage("wal")
	defer sp.End()
	snap, size, err := sess.snapshotB64()
	if err != nil {
		return ""
	}
	sp.SetAttr("bytes", int64(size))
	s.walAppendRetry(rt, w, walRecord{
		Kind:    "checkpoint",
		ID:      sess.id,
		Ruleset: sess.ruleset,
		SnapB64: snap,
	})
	return snap
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
	// The payload stays a string here: the batched path scans it in
	// place, so a text body reaches the sweep with no per-request copy.
	// Only the per-request run below materializes bytes.
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
	// Small unsharded requests coalesce into shared machine sweeps when
	// batching is on; oversize or deadline-critical requests take the
	// per-request path below unchanged.
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
	if err := faults.Check("server.match"); err != nil {
		rt.Annotate("fault", "server.match")
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
	return &MatchResponse{Matches: wireMatches(ms), Stats: wireStats(st)}, nil
}

// OpenSession opens a streaming session, resuming from a snapshot when
// one is supplied (the arrival half of a session migration). A
// telemetry.ReqTrace carried by ctx records the machine lease and the
// session's first WAL checkpoint as stage spans.
func (s *Server) OpenSession(ctx context.Context, req OpenSessionRequest) (*SessionInfo, error) {
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
	if err := faults.Check("server.open"); err != nil {
		rt.Annotate("fault", "server.open")
		return nil, errc(http.StatusInternalServerError, err, "open: %v", err)
	}
	rs, err := s.ruleset(req.Ruleset)
	if err != nil {
		return nil, err
	}
	var stream *ca.Stream
	resumed := false
	if req.SnapshotB64 != "" {
		snap, err := base64.StdEncoding.DecodeString(req.SnapshotB64)
		if err != nil {
			return nil, Errorf(http.StatusBadRequest, "bad snapshot base64: %v", err)
		}
		stream, err = rs.a.ResumeStreamContext(ctx, bytes.NewReader(snap))
		if err != nil {
			return nil, Errorf(http.StatusUnprocessableEntity, "resume: %v", err)
		}
		resumed = true
	} else {
		stream, err = rs.a.StreamContext(ctx)
		if err != nil {
			return nil, Errorf(http.StatusInternalServerError, "stream: %v", err)
		}
	}
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		stream.Close()
		s.col.Rejected.Inc()
		return nil, Errorf(http.StatusServiceUnavailable, "session limit of %d reached", s.cfg.MaxSessions)
	}
	s.nextID++
	sess := &session{
		id:       fmt.Sprintf("s%08d", s.nextID),
		ruleset:  req.Ruleset,
		stream:   stream,
		lastUsed: time.Now(),
	}
	s.sessions[sess.id] = sess
	s.col.SessionsActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	s.col.SessionsOpened.Inc()
	if resumed {
		s.col.SessionsResumed.Inc()
	}
	// The counter mark survives this session's own close tombstone, so a
	// restarted server never re-issues the id (see walRecord.NextID).
	n, _ := parseSessionID(sess.id)
	s.walAppend(rt, walRecord{Kind: "nextid", NextID: n})
	sess.mu.Lock()
	s.walCheckpoint(rt, sess)
	sess.mu.Unlock()
	s.log.InfoContext(ctx, "session opened", "session", sess.id, "ruleset", sess.ruleset, "resumed", resumed)
	return &SessionInfo{Session: sess.id, Ruleset: sess.ruleset, Pos: stream.Pos()}, nil
}

// Sessions lists open sessions. Per the lock order (sess.mu before
// Server.mu, never the reverse), the table is snapshotted under
// Server.mu and each session is then inspected under its own lock —
// the same pattern the reaper and Shutdown use.
func (s *Server) Sessions() []SessionInfo {
	s.mu.RLock()
	snap := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		snap = append(snap, sess)
	}
	s.mu.RUnlock()
	out := make([]SessionInfo, 0, len(snap))
	for _, sess := range snap {
		sess.mu.Lock()
		if !sess.closed {
			out = append(out, SessionInfo{Session: sess.id, Ruleset: sess.ruleset, Pos: sess.stream.Pos()})
		}
		sess.mu.Unlock()
	}
	return out
}

func (s *Server) session(id string) (*session, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, Errorf(http.StatusNotFound, "no session %q", id)
	}
	return sess, nil
}

// Feed appends a chunk to a session's stream and returns its matches.
// Feeds on one session serialize; feeds on different sessions run
// concurrently.
//
// Cancellation contract: if ctx expires before any symbol is consumed
// the feed fails with 504 and is safely retryable. If it expires
// mid-chunk, the matches found so far are delivered with Truncated set
// and Pos reporting how far the stream advanced — the client resumes by
// re-sending the unconsumed suffix. Either way the session stays open
// and consistent.
func (s *Server) Feed(ctx context.Context, id string, req FeedRequest) (*FeedResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	rt := telemetry.ReqTraceFrom(ctx)
	chunk, err := payload(req.Chunk, req.ChunkB64, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	if err := faults.Check("server.feed"); err != nil {
		rt.Annotate("fault", "server.feed")
		return nil, errc(http.StatusInternalServerError, err, "feed: %v", err)
	}
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	rt.SetRuleset(sess.ruleset)
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return nil, Errorf(http.StatusConflict, "session %q is closed", id)
	}
	sess.lastUsed = time.Now()
	before := sess.stream.Pos()
	ms, ferr := sess.stream.FeedContext(ctx, chunk)
	consumed := sess.stream.Pos() - before
	s.col.SessionBytes.Add(consumed)
	s.col.MatchReports.Add(int64(len(ms)))
	var snap string // the post-feed state, serialized at most once
	if consumed > 0 {
		snap = s.walCheckpoint(rt, sess)
	}
	if ferr != nil {
		s.col.Timeouts.Inc()
		if consumed == 0 {
			// Nothing consumed: the feed never happened; retry is safe.
			return nil, errc(http.StatusGatewayTimeout, ferr, "feed canceled: %v", ferr)
		}
		// Partially consumed: deliver what was matched so the client can
		// resume from Pos without losing or duplicating reports.
		return &FeedResponse{Matches: wireMatches(ms), Pos: sess.stream.Pos(), Truncated: true}, nil
	}
	resp := &FeedResponse{Matches: wireMatches(ms), Pos: sess.stream.Pos()}
	if req.Checkpoint {
		// Piggyback the post-feed snapshot for the cluster router's
		// checkpoint shipping. A failed suspend just omits it — the
		// router keeps shipping the previous checkpoint, trading a
		// slightly older resume point, never a failed feed.
		if snap == "" {
			snap, _, _ = sess.snapshotB64()
		}
		resp.SnapshotB64 = snap
	}
	return resp, nil
}

// Checkpoint serializes a session's architectural state without
// closing it — the shipping half of cluster session hand-off, and the
// router's way to seed a fresh session's first checkpoint. The
// returned snapshot resumes on any server holding the same compiled
// rule set; the session keeps serving here until the cluster layer
// decides to move it.
func (s *Server) Checkpoint(ctx context.Context, id string) (*SuspendResponse, error) {
	return s.snapshot(ctx, id, "checkpoint", false)
}

// Suspend serializes a session's architectural state, closes the session,
// and hands the snapshot to the client — the departure half of a session
// migration. Resuming the snapshot (here or on another server with the
// same compiled rule set) continues the stream with no lost or duplicated
// matches.
func (s *Server) Suspend(ctx context.Context, id string) (*SuspendResponse, error) {
	return s.snapshot(ctx, id, "suspend", true)
}

// snapshot is Checkpoint and, with suspend set, Suspend: the close
// happens under the same session lock as the serialization, so no feed
// can advance the stream after its snapshot was taken.
func (s *Server) snapshot(ctx context.Context, id, verb string, suspend bool) (*SuspendResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()
	rt := telemetry.ReqTraceFrom(ctx)
	if err := faults.Check("server.suspend"); err != nil {
		rt.Annotate("fault", "server.suspend")
		return nil, errc(http.StatusInternalServerError, err, "%s: %v", verb, err)
	}
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	rt.SetRuleset(sess.ruleset)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return nil, Errorf(http.StatusConflict, "session %q is closed", id)
	}
	snap, _, err := sess.snapshotB64()
	if err != nil {
		return nil, Errorf(http.StatusInternalServerError, "%s: %v", verb, err)
	}
	resp := &SuspendResponse{
		Ruleset:     sess.ruleset,
		Pos:         sess.stream.Pos(),
		SnapshotB64: snap,
	}
	if !suspend {
		sess.lastUsed = time.Now()
		return resp, nil
	}
	s.removeSession(rt, sess, false)
	s.col.SessionsSuspended.Inc()
	s.log.InfoContext(ctx, "session suspended", "session", id, "ruleset", sess.ruleset, "pos", resp.Pos)
	return resp, nil
}

// CloseSession closes and forgets a session. A telemetry.ReqTrace
// carried by ctx records the close-tombstone WAL append.
func (s *Server) CloseSession(ctx context.Context, id string) error {
	done, err := s.begin()
	if err != nil {
		return err
	}
	defer done()
	sess, err := s.session(id)
	if err != nil {
		return err
	}
	rt := telemetry.ReqTraceFrom(ctx)
	rt.SetRuleset(sess.ruleset)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return Errorf(http.StatusConflict, "session %q is closed", id)
	}
	s.removeSession(rt, sess, false)
	return nil
}

// removeSession closes the stream (returning its machine to the lease
// pool) and drops the session from the table. Caller holds sess.mu; rt
// is the requesting trace (nil from the reaper and Shutdown).
//
// keepCheckpoint selects the WAL policy: an explicit close, suspend or
// idle-reap tombstones the session's checkpoint (it must not come back
// after a restart), while graceful drain passes true so the checkpoint
// survives and the next server instance resumes the session.
func (s *Server) removeSession(rt *telemetry.ReqTrace, sess *session, keepCheckpoint bool) {
	sess.closed = true
	sess.stream.Close()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.col.SessionsActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	if !keepCheckpoint {
		s.walAppend(rt, walRecord{Kind: "close", ID: sess.id})
	}
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

// reapIdleSessions closes sessions idle longer than SessionIdle.
func (s *Server) reapIdleSessions() {
	defer close(s.reaperDone)
	tick := s.cfg.SessionIdle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopReaper:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.cfg.SessionIdle)
			s.mu.RLock()
			stale := make([]*session, 0)
			for _, sess := range s.sessions {
				stale = append(stale, sess)
			}
			s.mu.RUnlock()
			for _, sess := range stale {
				sess.mu.Lock()
				if !sess.closed && sess.lastUsed.Before(cutoff) {
					s.removeSession(nil, sess, false)
					s.col.SessionsExpired.Inc()
					s.log.Info("session expired", "session", sess.id, "ruleset", sess.ruleset)
				}
				sess.mu.Unlock()
			}
		}
	}
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

	s.mu.RLock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.RUnlock()
	for _, sess := range open {
		sess.mu.Lock()
		if !sess.closed {
			// keepCheckpoint: drained sessions must survive the restart.
			s.removeSession(nil, sess, true)
		}
		sess.mu.Unlock()
	}
	s.log.InfoContext(ctx, "server drained", "sessions_kept", len(open))

	s.mu.Lock()
	w := s.wal
	s.wal = nil
	s.mu.Unlock()
	if w != nil {
		// A failed final close can leave the last checkpoint record
		// unflushed; surface it unless the drain already failed.
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
