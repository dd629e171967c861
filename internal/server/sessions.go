package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// session is one streaming session. The mutex serializes feeds (the
// underlying Stream is single-owner); lastUsed drives the idle reaper.
//
// Lock order: sess.mu may be held while taking Server.mu (removeSession
// does), so nothing may take sess.mu while holding Server.mu — with an
// RWMutex a queued writer blocks new readers, and the inverted order
// deadlocks the whole server. eachSession is the one walk that keeps
// this order, and lockSession the one way to take a session by id.
type session struct {
	id      string
	ruleset string

	mu       sync.Mutex
	stream   *ca.Stream
	closed   bool
	lastUsed time.Time
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
	if err := faults.Check(rt, "server.open"); err != nil {
		return nil, errc(http.StatusInternalServerError, err, "open: %v", err)
	}
	rs, err := s.ruleset(req.Ruleset)
	if err != nil {
		return nil, err
	}
	var stream *ca.Stream
	resumed := req.SnapshotB64 != ""
	if resumed {
		if stream, err = resume(ctx, rs, req.SnapshotB64); err != nil {
			return nil, err
		}
	} else if stream, err = rs.a.StreamContext(ctx); err != nil {
		return nil, Errorf(http.StatusInternalServerError, "stream: %v", err)
	}
	sess := &session{ruleset: req.Ruleset, stream: stream, lastUsed: time.Now()}
	if err := s.addSession(sess); err != nil {
		stream.Close()
		s.col.Rejected.Inc()
		return nil, err
	}
	s.col.SessionsOpened.Inc()
	if resumed {
		s.col.SessionsResumed.Inc()
	}
	s.walAppend(rt, markRecord(sess.id))
	sess.mu.Lock()
	s.walCheckpoint(rt, sess)
	sess.mu.Unlock()
	s.log.InfoContext(ctx, "session opened", "session", sess.id, "ruleset", sess.ruleset, "resumed", resumed)
	return &SessionInfo{Session: sess.id, Ruleset: sess.ruleset, Pos: stream.Pos()}, nil
}

// addSession is the one way into the session table: it refuses an
// open past MaxSessions (503), numbers a session that has no id, refuses
// an id already open (409), and inserts the session.
func (s *Server) addSession(sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		return Errorf(http.StatusServiceUnavailable, "session limit of %d reached", s.cfg.MaxSessions)
	}
	if sess.id == "" {
		s.nextID++
		sess.id = fmt.Sprintf("s%08d", s.nextID)
	} else if _, dup := s.sessions[sess.id]; dup {
		return Errorf(http.StatusConflict, "session %q is already open", sess.id)
	}
	s.sessions[sess.id] = sess
	s.col.SessionsActive.Set(int64(len(s.sessions)))
	return nil
}

// resume decodes a base64 snapshot and resumes it as a stream of rs —
// the arrival half of a migration and of WAL replay alike.
func resume(ctx context.Context, rs *ruleset, snapB64 string) (*ca.Stream, error) {
	snap, err := base64.StdEncoding.DecodeString(snapB64)
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "bad snapshot base64: %v", err)
	}
	stream, err := rs.a.ResumeStreamContext(ctx, bytes.NewReader(snap))
	if err != nil {
		return nil, Errorf(http.StatusUnprocessableEntity, "resume: %v", err)
	}
	return stream, nil
}

// Sessions lists open sessions.
func (s *Server) Sessions() []SessionInfo {
	out := []SessionInfo{} // an empty list encodes as [], not null
	s.eachSession(func(sess *session) {
		out = append(out, SessionInfo{Session: sess.id, Ruleset: sess.ruleset, Pos: sess.stream.Pos()})
	})
	return out
}

// eachSession calls fn on every open session under that session's lock.
// Per the lock order (sess.mu before Server.mu, never the reverse), the
// table is copied under Server.mu and released before any session is
// locked, so fn may remove the session it is handed.
func (s *Server) eachSession(fn func(*session)) {
	s.mu.RLock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.RUnlock()
	for _, sess := range all {
		sess.mu.Lock()
		if !sess.closed {
			fn(sess)
		}
		sess.mu.Unlock()
	}
}

// lockSession finds session id, tags rt with its rule set and returns it
// locked: 404 for an unknown id, 409 for one closed since it was found.
// The caller unlocks sess.mu.
func (s *Server) lockSession(rt *telemetry.ReqTrace, id string) (*session, error) {
	s.mu.RLock()
	sess, ok := s.sessions[id]
	s.mu.RUnlock()
	if !ok {
		return nil, Errorf(http.StatusNotFound, "no session %q", id)
	}
	rt.SetRuleset(sess.ruleset)
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil, Errorf(http.StatusConflict, "session %q is closed", id)
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
	if err := faults.Check(rt, "server.feed"); err != nil {
		return nil, errc(http.StatusInternalServerError, err, "feed: %v", err)
	}
	// The deadline starts before the wait for the session lock.
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	sess, err := s.lockSession(rt, id)
	if err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
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
		return &FeedResponse{Matches: ms, Pos: sess.stream.Pos(), Truncated: true}, nil
	}
	resp := &FeedResponse{Matches: ms, Pos: sess.stream.Pos()}
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
	if err := faults.Check(rt, "server.suspend"); err != nil {
		return nil, errc(http.StatusInternalServerError, err, "%s: %v", verb, err)
	}
	sess, err := s.lockSession(rt, id)
	if err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
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
	rt := telemetry.ReqTraceFrom(ctx)
	sess, err := s.lockSession(rt, id)
	if err != nil {
		return err
	}
	defer sess.mu.Unlock()
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
			s.eachSession(func(sess *session) {
				if sess.lastUsed.Before(cutoff) {
					s.removeSession(nil, sess, false)
					s.col.SessionsExpired.Inc()
					s.log.Info("session expired", "session", sess.id, "ruleset", sess.ruleset)
				}
			})
		}
	}
}
