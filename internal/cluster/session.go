package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"cacheautomaton/internal/server"
)

// The exactly-once contract of cluster sessions:
//
// Every feed the router forwards asks the node to piggyback the
// session's post-feed state snapshot (FeedRequest.Checkpoint), and the
// router keeps only the snapshot of the last feed it ACKED to the
// client. When a feed fails — owner died, link partitioned, request
// timed out — the router resumes the session from that snapshot on a
// successor node and replays the one failed chunk there. The client
// sees its matches exactly once: chunks acked before the failure are
// inside the snapshot and never rescan, and the failed chunk's matches
// were never delivered (its response was lost with the failure), so
// its single replay is its only delivery. An ambiguous failure where
// the old node did scan the chunk leaves a stale node-local session
// that is closed best-effort and never consulted again.

// OpenSession opens (or, with SnapshotB64, resumes) a cluster session.
// The session id is router-scoped ("c%08d"): the node-local session
// behind it changes identity on every failover and migration, invisibly
// to the client.
func (r *Router) OpenSession(ctx context.Context, req server.OpenSessionRequest) (*server.SessionInfo, error) {
	r.col.Proxied.Inc()
	r.mu.Lock()
	err := r.refuseLocked(false, "")
	if err == nil && r.rulesets[req.Ruleset] == nil {
		err = server.Errorf(http.StatusNotFound, "no rule set %q", req.Ruleset)
	}
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.nextID++
	cs := &csession{
		id:         fmt.Sprintf("c%08d", r.nextID),
		ruleset:    req.Ruleset,
		checkpoint: req.SnapshotB64,
	}
	r.mu.Unlock()

	if err := r.home(ctx, cs, ""); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.sessions[cs.id] = cs
	r.col.Sessions.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	return &server.SessionInfo{Session: cs.id, Ruleset: cs.ruleset, Pos: cs.pos}, nil
}

// errNoHome is home's answer when no alive node is left to try.
var errNoHome = errRetryAfter("no alive node to open session on")

// home opens the session on its first alive ring owner, other than
// exclude, that takes it: the rule set is shipped there first, and the
// node-local session resumes from the session's checkpoint (a fresh
// stream when there is none). It returns the last node's error, or
// errNoHome when there was no node to try (cs.mu held, or cs not yet
// published).
func (r *Router) home(ctx context.Context, cs *csession, exclude string) error {
	r.mu.RLock()
	owners := r.aliveOwnersLocked("sess/" + cs.id)
	r.mu.RUnlock()
	err := errNoHome
	for _, node := range owners {
		if node == exclude {
			continue
		}
		if err = r.ensureRuleset(ctx, node, cs.ruleset); err != nil {
			continue
		}
		var info *server.SessionInfo
		if info, err = r.nodeOpen(ctx, node, cs.ruleset, cs.checkpoint); err == nil {
			cs.node, cs.localID, cs.pos = node, info.Session, info.Pos
			return nil
		}
	}
	return err
}

// Feed forwards one chunk to the session's owner, shipping back the
// post-feed checkpoint. An owner failure triggers checkpoint failover
// to a successor and the chunk replays there — bounded by the alive
// member count, then shed with Retry-After.
func (r *Router) Feed(ctx context.Context, id string, req server.FeedRequest) (*server.FeedResponse, error) {
	r.col.Proxied.Inc()
	cs, err := r.lockSession(id)
	if err != nil {
		return nil, err
	}
	defer cs.mu.Unlock()
	req.Checkpoint = true
	var lastErr error
	for attempt := 0; attempt <= r.memberCount(); attempt++ {
		//cavet:ignore singleattempt failover loop re-homes the session to a fresh node (failoverLocked) before every re-attempt; never a same-node blind resend
		resp, err := r.nodeFeed(ctx, cs.node, cs.localID, req)
		if err == nil {
			r.absorbCheckpoint(ctx, cs, resp)
			resp.SnapshotB64 = "" // cluster-internal; never reaches the client
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		if st := hopStatus(err); st < 500 && st != http.StatusNotFound && st != http.StatusTooManyRequests {
			// The node answered with a client error (bad chunk, too
			// large): the session is fine, the request is not.
			return nil, err
		}
		// Owner lost (transport failure, 5xx, or a 404 from a node that
		// restarted empty): hand the session to a successor and replay.
		if ferr := r.failoverLocked(ctx, cs, cs.node); ferr != nil {
			return nil, ferr
		}
	}
	r.col.ProxyErrors.Inc()
	return nil, server.Errorf(http.StatusServiceUnavailable, "feed failed after failover: %v", lastErr)
}

// absorbCheckpoint records a successful feed's position and shipped
// checkpoint (cs.mu held). A feed response without a snapshot
// (truncated mid-chunk by the execution deadline, or a node-side
// suspend failure) would leave the stored checkpoint behind the acked
// position, so the router refreshes it with an explicit checkpoint
// call; if even that fails the session is marked stale — exact
// failover is no longer possible and the next one reports 410 instead
// of silently rescanning.
func (r *Router) absorbCheckpoint(ctx context.Context, cs *csession, resp *server.FeedResponse) {
	cs.pos = resp.Pos
	if resp.SnapshotB64 != "" && !resp.Truncated {
		r.keep(cs, resp.Pos, resp.SnapshotB64)
		return
	}
	cp, err := call[server.SuspendResponse](ctx, r, cs.node, "sessions.checkpoint", cs.localID, nil)
	if err != nil {
		cs.stale = true
		r.log.WarnContext(ctx, "checkpoint refresh failed; session not exactly recoverable", "session", cs.id, "node", cs.node, "error", err)
		return
	}
	r.keep(cs, cp.Pos, cp.SnapshotB64)
}

// keep records snap as the session's checkpoint at pos — the state a
// failover resumes from (cs.mu held).
func (r *Router) keep(cs *csession, pos int64, snap string) {
	cs.pos = pos
	cs.checkpoint = snap
	cs.stale = false
	r.col.CheckpointsShipped.Inc()
	r.col.CheckpointBytes.Add(int64(len(snap)))
}

// failoverLocked moves a session whose owner failed onto a successor,
// resuming from the last shipped checkpoint (cs.mu held). Session moves
// are placement changes: a minority-partitioned router sheds them with
// Retry-After instead of risking a double-serving split brain.
func (r *Router) failoverLocked(ctx context.Context, cs *csession, failed string) error {
	r.mu.RLock()
	err := r.refuseLocked(true, "cannot fail over session %q", cs.id)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	if cs.stale || (cs.checkpoint == "" && cs.pos > 0) {
		r.dropSession(cs)
		return server.Errorf(http.StatusGone, "session %q lost: no recoverable checkpoint", cs.id)
	}
	start := time.Now()
	oldNode, oldLocal := cs.node, cs.localID
	switch err := r.home(ctx, cs, failed); {
	case err == errNoHome:
		return errRetryAfter("no successor for session %q", cs.id)
	case err != nil:
		return errRetryAfter("no successor for session %q: %v", cs.id, err)
	}
	r.col.Failovers.Inc()
	r.col.HandoffSeconds.Observe(time.Since(start).Seconds())
	r.log.InfoContext(ctx, "session failed over", "session", cs.id, "from", oldNode, "to", cs.node, "pos", cs.pos)
	// The old node-local session, if its process survived, is stale:
	// close it best-effort so its lease returns. Never consulted again
	// either way.
	go func() {
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = r.rpc(cctx, oldNode, "sessions.close", oldLocal, nil, nil)
	}()
	return nil
}

// migrateLocked is the planned hand-off (rebalance after a rejoin):
// suspend on the current owner — which closes the node-local session,
// so the stream can never serve from two nodes — then resume the
// suspended snapshot on the target (cs.mu held). If the resume fails
// the snapshot is still the freshest state, so the session falls back
// to ordinary failover from it.
func (r *Router) migrateLocked(ctx context.Context, cs *csession, target string) error {
	r.mu.RLock()
	err := r.refuseLocked(true, "cannot migrate session %q", cs.id)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := r.ensureRuleset(ctx, target, cs.ruleset); err != nil {
		return err
	}
	start := time.Now()
	sus, err := call[server.SuspendResponse](ctx, r, cs.node, "sessions.suspend", cs.localID, nil)
	if err != nil {
		// Owner died under us: this is no longer a migration, it is a
		// failover from the last shipped checkpoint.
		return r.failoverLocked(ctx, cs, cs.node)
	}
	r.keep(cs, sus.Pos, sus.SnapshotB64)
	oldNode := cs.node
	info, err := r.nodeOpen(ctx, target, cs.ruleset, sus.SnapshotB64)
	if err != nil {
		return r.failoverLocked(ctx, cs, target)
	}
	cs.node, cs.localID, cs.pos = target, info.Session, info.Pos
	r.col.Handoffs.Inc()
	r.col.HandoffSeconds.Observe(time.Since(start).Seconds())
	r.log.InfoContext(ctx, "session migrated", "session", cs.id, "from", oldNode, "to", target, "pos", cs.pos)
	return nil
}

// Suspend suspends a cluster session for external migration: the
// owner's snapshot comes back to the client and the cluster forgets the
// session. A dead owner degrades to the last shipped checkpoint — the
// same state a failover would resume from.
func (r *Router) Suspend(ctx context.Context, id string) (*server.SuspendResponse, error) {
	cs, err := r.lockSession(id)
	if err != nil {
		return nil, err
	}
	defer cs.mu.Unlock()
	sus, err := call[server.SuspendResponse](ctx, r, cs.node, "sessions.suspend", cs.localID, nil)
	if err != nil {
		if cs.stale || cs.checkpoint == "" {
			return nil, errRetryAfter("session %q owner unreachable and no shipped checkpoint", id)
		}
		sus = &server.SuspendResponse{Ruleset: cs.ruleset, Pos: cs.pos, SnapshotB64: cs.checkpoint}
	}
	r.dropSession(cs)
	return sus, nil
}

// CloseSession closes a cluster session. The node-local close is
// best-effort: a dead owner's session died with it.
func (r *Router) CloseSession(ctx context.Context, id string) error {
	cs, err := r.lockSession(id)
	if err != nil {
		return err
	}
	defer cs.mu.Unlock()
	node, local := cs.node, cs.localID
	r.dropSession(cs)
	if err := r.rpc(ctx, node, "sessions.close", local, nil, nil); err != nil {
		r.log.WarnContext(ctx, "node-local close failed", "session", id, "node", node, "error", err)
	}
	return nil
}

// Sessions lists the cluster's sessions.
func (r *Router) Sessions() []server.SessionInfo {
	r.mu.RLock()
	all := make([]*csession, 0, len(r.sessions))
	for _, cs := range r.sessions {
		all = append(all, cs)
	}
	r.mu.RUnlock()
	out := make([]server.SessionInfo, 0, len(all))
	for _, cs := range all {
		cs.mu.Lock()
		if !cs.closed {
			out = append(out, server.SessionInfo{Session: cs.id, Ruleset: cs.ruleset, Pos: cs.pos})
		}
		cs.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// lockSession resolves a client's session id and returns the session
// locked: refused while the router drains, 404 when the id is unknown
// or its session closed. The drain check rides the table read lock the
// lookup takes anyway.
func (r *Router) lockSession(id string) (*csession, error) {
	r.mu.RLock()
	err := r.refuseLocked(false, "")
	cs := r.sessions[id]
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if cs != nil {
		cs.mu.Lock()
		if !cs.closed {
			return cs, nil
		}
		cs.mu.Unlock()
	}
	return nil, server.Errorf(http.StatusNotFound, "no session %q", id)
}

// dropSession removes a session from the table (cs.mu held).
func (r *Router) dropSession(cs *csession) {
	cs.closed = true
	r.mu.Lock()
	delete(r.sessions, cs.id)
	r.col.Sessions.Set(int64(len(r.sessions)))
	r.mu.Unlock()
}

func (r *Router) memberCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}
