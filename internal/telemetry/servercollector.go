package telemetry

// ServerCollector aggregates the match-serving subsystem's metrics into a
// registry: request traffic and latency, worker-pool backpressure, and the
// streaming-session lifecycle. All instruments are atomic, so one
// collector is shared by every transport (HTTP and TCP) and handler
// goroutine of a server.
type ServerCollector struct {
	// Requests counts API operations started (all transports).
	Requests *Counter
	// RequestErrors counts operations that returned an error to the client.
	RequestErrors *Counter
	// Rejected counts operations shed by backpressure (queue full or
	// queue-wait timeout) or refused because the server is draining.
	Rejected *Counter
	// RequestSeconds is the end-to-end operation latency distribution.
	RequestSeconds *Histogram
	// InFlight is the number of operations currently executing.
	InFlight *Gauge
	// QueueDepth is the number of match requests waiting for a worker slot.
	QueueDepth *Gauge
	// MatchInputBytes totals the bytes scanned by one-shot match requests.
	MatchInputBytes *Counter
	// MatchReports totals the match events returned to clients.
	MatchReports *Counter
	// SessionsActive is the current open-session count.
	SessionsActive *Gauge
	// SessionsOpened / SessionsResumed / SessionsSuspended / SessionsExpired
	// count session lifecycle transitions (resumed sessions are also counted
	// as opened; expired means reaped by the idle timeout).
	SessionsOpened    *Counter
	SessionsResumed   *Counter
	SessionsSuspended *Counter
	SessionsExpired   *Counter
	// SessionBytes totals bytes fed through streaming sessions.
	SessionBytes *Counter
	// Rulesets is the number of compiled rule sets currently loaded.
	Rulesets *Gauge
	// Panics counts handler/worker panics recovered by the resilience
	// layer (each one returned a structured 500 instead of killing the
	// process).
	Panics *Counter
	// Timeouts counts operations stopped by deadline-aware cancellation
	// (Config.RequestTimeout or a client disconnect).
	Timeouts *Counter
	// WALRecords / WALReplayed count session-WAL records appended and
	// records replayed at startup; WALErrors counts append failures
	// (after which the WAL fail-stops until restart).
	WALRecords  *Counter
	WALReplayed *Counter
	WALErrors   *Counter
	// BatchSize is the members-per-flush distribution of the request
	// coalescer; BatchWait is how long each member sat waiting for its
	// batch to flush; BatchedRequests counts requests served through
	// batched machine sweeps.
	BatchSize       *Histogram
	BatchWait       *Histogram
	BatchedRequests *Counter
	// StageSeconds breaks serving latency down by pipeline stage
	// (stage = queue | batch | lease | run | wal; a rule-set PUT adds its
	// compile or decode stages and cache.get | cache.store), fed from the
	// flight recorder's per-request stage spans.
	StageSeconds *HistogramVec
	// RulesetSeconds is end-to-end request latency per rule set, for
	// match and feed operations (cardinality-bounded; overflow lands in
	// the "other" series).
	RulesetSeconds *HistogramVec
	// SlowRequests counts requests at or above the slow threshold that
	// the flight recorder pinned.
	SlowRequests *Counter
	// CacheHits / CacheMisses count compile-cache lookups that loaded a
	// serialized automaton vs fell through to a full compile; CacheErrors
	// counts corrupted or unwritable cache entries (each one falls back
	// to recompiling, never a failed boot).
	CacheHits   *Counter
	CacheMisses *Counter
	CacheErrors *Counter
	// Reloads counts atomic rule-set swaps through the reload endpoint.
	Reloads *Counter
}

// NewServerCollector registers the serving metrics (names prefixed
// ca_server_) in reg and returns the collector. reg == nil uses Default().
func NewServerCollector(reg *Registry) *ServerCollector {
	if reg == nil {
		reg = Default()
	}
	latencyBuckets := ExpBuckets(0.0001, 4, 10) // 100µs … ~26s
	return &ServerCollector{
		Requests:          reg.Counter("ca_server_requests_total", "API operations started"),
		RequestErrors:     reg.Counter("ca_server_request_errors_total", "API operations that returned an error"),
		Rejected:          reg.Counter("ca_server_rejected_total", "requests shed by backpressure or drain"),
		RequestSeconds:    reg.Histogram("ca_server_request_seconds", "operation latency in seconds", latencyBuckets),
		InFlight:          reg.Gauge("ca_server_inflight_requests", "operations currently executing"),
		QueueDepth:        reg.Gauge("ca_server_match_queue_depth", "match requests waiting for a worker slot"),
		MatchInputBytes:   reg.Counter("ca_server_match_input_bytes_total", "bytes scanned by one-shot match requests"),
		MatchReports:      reg.Counter("ca_server_match_reports_total", "match events returned to clients"),
		SessionsActive:    reg.Gauge("ca_server_sessions_active", "open streaming sessions"),
		SessionsOpened:    reg.Counter("ca_server_sessions_opened_total", "streaming sessions opened (including resumed)"),
		SessionsResumed:   reg.Counter("ca_server_sessions_resumed_total", "sessions resumed from a suspended snapshot"),
		SessionsSuspended: reg.Counter("ca_server_sessions_suspended_total", "sessions suspended for migration"),
		SessionsExpired:   reg.Counter("ca_server_sessions_expired_total", "sessions reaped by the idle timeout"),
		SessionBytes:      reg.Counter("ca_server_session_bytes_total", "bytes fed through streaming sessions"),
		Rulesets:          reg.Gauge("ca_server_rulesets", "compiled rule sets loaded"),
		Panics:            reg.Counter("ca_server_panics_total", "handler/worker panics recovered into structured errors"),
		Timeouts:          reg.Counter("ca_server_timeouts_total", "operations stopped by deadline-aware cancellation"),
		WALRecords:        reg.Counter("ca_wal_records_total", "session WAL records appended"),
		WALReplayed:       reg.Counter("ca_wal_replayed_total", "session WAL records replayed at startup"),
		WALErrors:         reg.Counter("ca_wal_errors_total", "session WAL append failures (WAL fail-stops)"),
		BatchSize:         reg.Histogram("ca_server_batch_size", "match requests coalesced per batch flush", ExpBuckets(1, 2, 9)),
		BatchWait:         reg.Histogram("ca_server_batch_wait_seconds", "time each request waited for its batch to flush", latencyBuckets),
		BatchedRequests:   reg.Counter("ca_server_batched_requests_total", "match requests served through batched machine sweeps"),
		StageSeconds:      reg.HistogramVec("ca_server_stage_seconds", "serving latency by pipeline stage", "stage", latencyBuckets),
		RulesetSeconds:    reg.HistogramVec("ca_server_ruleset_seconds", "end-to-end request latency by rule set", "ruleset", latencyBuckets),
		SlowRequests:      reg.Counter("ca_server_slow_requests_total", "requests at or above the slow threshold"),
		CacheHits:         reg.Counter("ca_cache_hits_total", "compile-cache lookups served from a serialized automaton"),
		CacheMisses:       reg.Counter("ca_cache_misses_total", "compile-cache lookups that fell through to a full compile"),
		CacheErrors:       reg.Counter("ca_cache_errors_total", "corrupted or unwritable compile-cache entries (recovered by recompiling)"),
		Reloads:           reg.Counter("ca_server_reloads_total", "atomic rule-set swaps through the reload endpoint"),
	}
}
