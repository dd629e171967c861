package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"cacheautomaton/internal/retry"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// virtualNodes is the consistent-hash ring's virtual-node count per
// member; suspectAfter and deadAfter are the missed-heartbeat thresholds
// for the alive → suspect → dead transitions.
const (
	virtualNodes = 64
	suspectAfter = 2
	deadAfter    = 4
)

// Config tunes a Router. The zero value serves with sensible defaults.
type Config struct {
	// Replicas is how many nodes hold each rule set (default 2; clamped
	// to the member count at placement time). The primary compiles, the
	// rest install the shipped caformat artifact and never recompile.
	Replicas int
	// HeartbeatInterval paces the health checker (default 250ms).
	HeartbeatInterval time.Duration
	// HedgeDelay is how long a one-shot /match waits on the primary
	// before also asking a replica (default 30ms; negative disables
	// hedging).
	HedgeDelay time.Duration
	// RPC is the inter-node call policy: jittered exponential backoff
	// with per-attempt timeouts (defaults: 3 attempts, 25ms base,
	// 250ms cap, 2s per attempt). Non-idempotent calls (feeds) always
	// run single-attempt regardless; their recovery is the checkpoint
	// failover path.
	RPC retry.Policy
	// Client issues the router's HTTP calls (default: a dedicated
	// client with connection pooling). Tests substitute transports to
	// simulate partitions.
	Client *http.Client
	// Registry receives ca_cluster_* metrics (nil uses telemetry.Default()).
	Registry *telemetry.Registry
	// Logger receives structured routing logs (nil discards them).
	Logger *slog.Logger
	// SlowRequest and TraceRingSize configure the router's own flight
	// recorder, mirroring server.Config (negative TraceRingSize
	// disables tracing).
	SlowRequest   time.Duration
	TraceRingSize int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.RPC.MaxAttempts == 0 {
		c.RPC.MaxAttempts = 3
	}
	if c.RPC.BaseDelay == 0 {
		c.RPC.BaseDelay = 25 * time.Millisecond
	}
	if c.RPC.MaxDelay == 0 {
		c.RPC.MaxDelay = 250 * time.Millisecond
	}
	if c.RPC.AttemptTimeout == 0 {
		c.RPC.AttemptTimeout = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = 250 * time.Millisecond
	}
	return c
}

// Member health states.
const (
	stateAlive    = "alive"
	stateSuspect  = "suspect"
	stateDead     = "dead"
	stateNotReady = "notready" // responding, but 503 (draining or warming)
)

// member is one node's membership record, guarded by Router.mu.
type member struct {
	id     string
	url    string
	state  string
	misses int
	detail server.ReadyDetail
}

// responsive reports whether the member answers probes at all — the
// quorum signal. A notready member is responsive (its process is up,
// it is draining or warming), a suspect or dead one is not.
func (m *member) responsive() bool { return m.state == stateAlive || m.state == stateNotReady }

// placedRuleset is one rule set's cluster placement record: the
// definition (for compile fallback when every artifact holder is
// gone), the primary's info, and which nodes hold which version.
type placedRuleset struct {
	req  server.CompileRequest
	info server.RulesetInfo
	// gen is the cluster placement generation: 1 on first placement,
	// incremented by every replacing compile through the router.
	gen     int
	holders map[string]int // node id → installed generation
}

// csession is one cluster session: a stable client-facing id mapped to
// the node-local session currently serving it, plus the last shipped
// checkpoint that makes failover resume exact.
//
// Lock order: csession.mu may be held while taking Router.mu (feeds
// resolve membership under it), so nothing may take csession.mu while
// holding Router.mu — snapshot session pointers under Router.mu first,
// release it, then lock each session (the same discipline as
// server.session.mu vs server.Server.mu).
type csession struct {
	id      string
	ruleset string

	mu      sync.Mutex
	node    string // current owner node id
	localID string // node-local session id on node
	pos     int64
	// checkpoint is the post-feed state snapshot of the last
	// acknowledged feed (base64). Empty with pos 0 means "fresh
	// stream"; stale means the invariant broke (a feed was acked
	// without a fresh snapshot) and exact failover is impossible.
	checkpoint string
	stale      bool
	closed     bool
}

// Router is the cluster front-end: it owns membership, the placement
// ring, the rule-set and session tables, and proxies client traffic to
// nodes with retries, hedging and failover.
type Router struct {
	cfg    Config
	col    *telemetry.ClusterCollector
	log    *slog.Logger
	client *http.Client
	traces *telemetry.TraceRing

	mu          sync.RWMutex
	members     map[string]*member
	ring        *Ring
	ringVersion uint64
	rulesets    map[string]*placedRuleset
	sessions    map[string]*csession
	nextID      uint64
	draining    bool

	stopHB chan struct{}
	hbDone chan struct{}
	// kick wakes the reconciler outside its heartbeat cadence
	// (buffered: a pending kick coalesces with the next).
	kick chan struct{}
}

// NewRouter builds a Router and starts its health checker. Add nodes
// with AddNode, then serve Handler.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:      cfg,
		col:      telemetry.NewClusterCollector(cfg.Registry),
		log:      cfg.Logger,
		client:   cfg.Client,
		traces:   telemetry.NewTraceRing(cfg.TraceRingSize, cfg.SlowRequest),
		members:  make(map[string]*member),
		ring:     NewRing(virtualNodes),
		rulesets: make(map[string]*placedRuleset),
		sessions: make(map[string]*csession),
		stopHB:   make(chan struct{}),
		hbDone:   make(chan struct{}),
		kick:     make(chan struct{}, 1),
	}
	go r.healthLoop()
	return r
}

// Traces exposes the router's flight recorder (nil when disabled).
func (r *Router) Traces() *telemetry.TraceRing { return r.traces }

// AddNode registers (or re-registers) a node. A known id updates the
// URL — the rejoin path after a kill: the restarted process keeps its
// ring position, so placement barely moves. The node is probed once
// immediately; unreachable nodes are admitted as suspect and picked up
// by the health checker when they come up. Joins are placement changes
// and are refused without quorum.
func (r *Router) AddNode(ctx context.Context, id, url string) error {
	if id == "" || url == "" {
		return server.Errorf(http.StatusBadRequest, "node id and url are required")
	}
	r.mu.Lock()
	if err := r.refuseLocked(true, "refusing membership change"); err != nil {
		r.mu.Unlock()
		return err
	}
	m, rejoin := r.members[id]
	if !rejoin {
		m = &member{id: id, url: url, state: stateSuspect}
		r.members[id] = m
		r.ring.Add(id)
	} else {
		m.url = url
	}
	r.bumpRingLocked()
	r.updateMemberGauges()
	r.mu.Unlock()

	// Probe outside the lock; the health loop owns state from here on.
	detail, err := r.probe(ctx, id, url)
	r.mu.Lock()
	if m := r.members[id]; m != nil && m.url == url {
		if err == nil {
			r.transition(m, stateAlive, detail)
		}
	}
	r.updateMemberGauges()
	r.mu.Unlock()
	r.kickReconcile()
	r.log.InfoContext(ctx, "cluster node registered", "node", id, "url", url, "rejoin", rejoin, "probe_ok", err == nil)
	return nil
}

// RemoveNode deletes a member and its ring arcs. Its sessions fail
// over to successors from their last shipped checkpoints on the next
// reconcile round. Refused without quorum.
func (r *Router) RemoveNode(id string) error {
	r.mu.Lock()
	if _, ok := r.members[id]; !ok {
		r.mu.Unlock()
		return server.Errorf(http.StatusNotFound, "no node %q", id)
	}
	if err := r.refuseLocked(true, "refusing membership change"); err != nil {
		r.mu.Unlock()
		return err
	}
	delete(r.members, id)
	r.ring.Remove(id)
	for _, pr := range r.rulesets {
		delete(pr.holders, id)
	}
	r.bumpRingLocked()
	r.updateMemberGauges()
	r.mu.Unlock()
	r.kickReconcile()
	r.log.Info("cluster node removed", "node", id)
	return nil
}

// Shutdown stops the health checker and flips the router to draining:
// every later call but a read — a match, a session open, feed, suspend
// or close, a compile or delete, a join or leave — is refused with 503
// (refuseLocked). Reads keep answering: the rule-set and session lists,
// a rule set's description, /cluster and the probes.
// Nodes are not touched — they are independent processes with their own
// drains.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	already := r.draining
	r.draining = true
	r.mu.Unlock()
	if !already {
		close(r.stopHB)
	}
	select {
	case <-r.hbDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// quorumLocked reports whether the router currently sees a majority of
// its members (caller holds mu).
func (r *Router) quorumLocked() bool {
	if len(r.members) == 0 {
		return true
	}
	responsive := 0
	for _, m := range r.members {
		if m.responsive() {
			responsive++
		}
	}
	return responsive > len(r.members)/2
}

// refuseLocked is the router's one refusal rule (caller holds mu). A
// draining router refuses everything but reads. In a minority partition
// the router keeps serving reads and feeds against reachable nodes, but
// a placement or membership change — a compile, delete, join or leave,
// a session move — is counted and shed with Retry-After, so a healed
// partition cannot discover two divergent placements.
func (r *Router) refuseLocked(placement bool, format string, args ...any) error {
	if r.draining {
		return server.Errorf(http.StatusServiceUnavailable, "router is draining")
	}
	if placement && !r.quorumLocked() {
		r.col.PlacementsRefused.Inc()
		return errRetryAfter("no quorum: "+format, args...)
	}
	return nil
}

// bumpRingLocked advances the routing table's version (caller holds mu),
// so clients that cache /cluster re-fetch it.
func (r *Router) bumpRingLocked() {
	r.ringVersion++
	r.col.RingVersion.Set(int64(r.ringVersion))
}

// transition applies a member state change (caller holds mu).
func (r *Router) transition(m *member, next string, detail server.ReadyDetail) {
	if next == stateAlive || next == stateNotReady {
		m.misses = 0
		m.detail = detail
	}
	if m.state == next {
		return
	}
	prev := m.state
	m.state = next
	r.bumpRingLocked()
	r.log.Info("cluster member state", "node", m.id, "from", prev, "to", next)
	if prev == stateDead && (next == stateAlive || next == stateNotReady) {
		// A dead process that answers again restarted empty (kill) or
		// was partitioned (its state survived). Either way, dropping it
		// from every holder set and re-shipping is correct — installs
		// are idempotent swaps — so rejoin always reconverges.
		for _, pr := range r.rulesets {
			delete(pr.holders, m.id)
		}
	}
}

func (r *Router) updateMemberGauges() {
	var alive, suspect, dead int64
	for _, m := range r.members {
		switch m.state {
		case stateAlive, stateNotReady:
			alive++
		case stateSuspect:
			suspect++
		case stateDead:
			dead++
		}
	}
	r.col.Nodes.Set(int64(len(r.members)))
	r.col.NodesAlive.Set(alive)
	r.col.NodesSuspect.Set(suspect)
	r.col.NodesDead.Set(dead)
}

// healthLoop is the heartbeat + reconcile driver: every interval it
// probes each member's /readyz, advances alive → suspect → dead on
// misses, and runs a reconcile round whenever membership changed (or a
// kick arrived from AddNode/failover).
func (r *Router) healthLoop() {
	defer close(r.hbDone)
	t := time.NewTicker(r.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopHB:
			return
		case <-r.kick:
			r.reconcile()
		case <-t.C:
			if r.heartbeatRound() {
				r.reconcile()
			}
		}
	}
}

// heartbeatRound probes every member once and reports whether any
// state transition happened.
func (r *Router) heartbeatRound() bool {
	r.mu.RLock()
	type probeTarget struct{ id, url, state string }
	targets := make([]probeTarget, 0, len(r.members))
	for _, m := range r.members {
		targets = append(targets, probeTarget{m.id, m.url, m.state})
	}
	r.mu.RUnlock()
	// A probe's budget is the RPC attempt timeout, not the heartbeat
	// cadence: a loaded-but-healthy node must not be declared suspect
	// just because one response took longer than the interval. Dead
	// nodes still fail fast (connection refused / injected partition).
	timeout := r.cfg.RPC.AttemptTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	changed := false
	for _, tgt := range targets {
		r.col.Heartbeats.Inc()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		detail, err := r.probe(ctx, tgt.id, tgt.url)
		cancel()
		r.mu.Lock()
		m := r.members[tgt.id]
		if m == nil || m.url != tgt.url {
			r.mu.Unlock()
			continue
		}
		prev := m.state
		switch {
		case err == nil && detail.Ready:
			r.transition(m, stateAlive, detail)
		case err == nil:
			// Responding but 503: draining or not yet ready. Responsive
			// for quorum, not a placement target, never "dead".
			r.transition(m, stateNotReady, detail)
		default:
			r.col.HeartbeatFailures.Inc()
			m.misses++
			switch {
			case m.misses >= deadAfter:
				r.transition(m, stateDead, server.ReadyDetail{})
			case m.misses >= suspectAfter:
				r.transition(m, stateSuspect, server.ReadyDetail{})
			}
		}
		if m.state != prev {
			changed = true
		}
		r.updateMemberGauges()
		r.mu.Unlock()
	}
	return changed
}

// probe fetches one node's /readyz detail. It goes through the same
// injection seam as every other inter-node call, so a chaos partition
// of a node starves its heartbeats exactly like its RPCs.
func (r *Router) probe(ctx context.Context, id, url string) (server.ReadyDetail, error) {
	var detail server.ReadyDetail
	err := r.rpcOnce(ctx, id, url, http.MethodGet, "/readyz", nil, &detail)
	if err == nil {
		return detail, nil
	}
	// A structured 503 is still an answer: the process is up. Transport
	// errors (and injected partition faults) are the only misses.
	if hopStatus(err) == http.StatusServiceUnavailable {
		return detail, nil
	}
	return detail, err
}

// kickReconcile wakes the reconciler without waiting out a heartbeat.
func (r *Router) kickReconcile() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// reconcile is one repair round: every placed rule set is re-shipped
// to the alive nodes its ring arc assigns, sessions stranded on
// non-alive nodes fail over to successors from their last shipped
// checkpoints, and sessions whose preferred (rejoined) owner differs
// from their current one migrate back via planned hand-off.
func (r *Router) reconcile() {
	r.mu.RLock()
	if r.draining || !r.quorumLocked() {
		// Minority partition: no placement changes, no session moves.
		r.mu.RUnlock()
		return
	}
	type shipJob struct {
		name    string
		targets []string
	}
	var ships []shipJob
	for name, pr := range r.rulesets {
		var missing []string
		for _, node := range r.replicasLocked(name) {
			if pr.holders[node] != pr.gen {
				missing = append(missing, node)
			}
		}
		if len(missing) > 0 {
			ships = append(ships, shipJob{name, missing})
		}
	}
	sessions := make([]*csession, 0, len(r.sessions))
	for _, cs := range r.sessions {
		sessions = append(sessions, cs)
	}
	r.mu.RUnlock()

	work := false
	for _, job := range ships {
		for _, node := range job.targets {
			if err := r.ensureRuleset(context.Background(), node, job.name); err != nil {
				r.log.Warn("reconcile: ship failed", "ruleset", job.name, "node", node, "error", err)
			} else {
				work = true
			}
		}
	}
	for _, cs := range sessions {
		cs.mu.Lock()
		if cs.closed {
			cs.mu.Unlock()
			continue
		}
		owner := cs.node
		r.mu.RLock()
		alive := r.aliveOwnersLocked("sess/" + cs.id)
		r.mu.RUnlock()
		switch {
		case len(alive) == 0:
			// No alive node at all; feeds will shed until one returns.
		case !slices.Contains(alive, owner):
			if err := r.failoverLocked(context.Background(), cs, owner); err != nil {
				r.log.Warn("reconcile: failover failed", "session", cs.id, "from", owner, "error", err)
			} else {
				work = true
			}
		case alive[0] != owner:
			if err := r.migrateLocked(context.Background(), cs, alive[0]); err != nil {
				r.log.Warn("reconcile: migration failed", "session", cs.id, "from", owner, "to", alive[0], "error", err)
			} else {
				work = true
			}
		}
		cs.mu.Unlock()
	}
	if work {
		r.col.Rebalances.Inc()
	}
}

// aliveOwnersLocked is key's ring order with every member that is not
// alive left out (caller holds mu) — the one order that placement,
// session homing, failover and the match fan-out all walk.
func (r *Router) aliveOwnersLocked(key string) []string {
	owners := r.ring.Owners(key)
	alive := owners[:0]
	for _, node := range owners {
		if m := r.members[node]; m != nil && m.state == stateAlive {
			alive = append(alive, node)
		}
	}
	return alive
}

// replicasLocked is a rule set's replica set: the first Replicas alive
// owners of its key, the primary first (caller holds mu).
func (r *Router) replicasLocked(name string) []string {
	alive := r.aliveOwnersLocked("rs/" + name)
	return alive[:min(len(alive), r.cfg.Replicas)]
}

func (r *Router) memberURL(id string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.members[id]
	if m == nil {
		return "", server.Errorf(http.StatusServiceUnavailable, "node %q left the cluster", id)
	}
	return m.url, nil
}

// Table is the routing table served at /cluster: clients that want to
// skip the proxy hop fetch it, route matches to any holder of their
// rule set, and re-fetch when their cached version goes stale.
type Table struct {
	Version  uint64                  `json:"version"`
	Replicas int                     `json:"replicas"`
	Quorum   bool                    `json:"quorum"`
	Nodes    []TableNode             `json:"nodes"`
	Rulesets map[string]TableRuleset `json:"rulesets,omitempty"`
	Sessions int                     `json:"sessions"`
}

// TableNode is one member's routing entry.
type TableNode struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
	// Rulesets is the node's per-ruleset readiness detail from its last
	// heartbeat (compiling / reloading / cached / ready).
	Rulesets map[string]string `json:"rulesets,omitempty"`
}

// TableRuleset is one rule set's placement entry.
type TableRuleset struct {
	Version int      `json:"version"`
	Holders []string `json:"holders"`
}

// ClusterTable snapshots the routing table.
func (r *Router) ClusterTable() Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := Table{
		Version:  r.ringVersion,
		Replicas: r.cfg.Replicas,
		Quorum:   r.quorumLocked(),
		Sessions: len(r.sessions),
	}
	for _, m := range r.members {
		t.Nodes = append(t.Nodes, TableNode{ID: m.id, URL: m.url, State: m.state, Rulesets: m.detail.Rulesets})
	}
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i].ID < t.Nodes[j].ID })
	if len(r.rulesets) > 0 {
		t.Rulesets = make(map[string]TableRuleset, len(r.rulesets))
		for name, pr := range r.rulesets {
			holders := make([]string, 0, len(pr.holders))
			for node := range pr.holders {
				holders = append(holders, node)
			}
			sort.Strings(holders)
			t.Rulesets[name] = TableRuleset{Version: pr.gen, Holders: holders}
		}
	}
	return t
}

// errRetryAfter is the overload/no-quorum shed: a 503 whose transport
// rendering carries a Retry-After header, telling well-behaved clients
// to back off instead of hammering a degraded cluster.
func errRetryAfter(format string, args ...any) error {
	return &server.Error{Status: http.StatusServiceUnavailable, Msg: fmt.Sprintf(format, args...), RetryAfter: 1}
}
