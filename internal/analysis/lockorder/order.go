// Package lockorder statically enforces the repo's global
// lock-acquisition order. It builds a lock graph — an edge A → B for
// every site where lock class B is acquired (directly or through any
// chain of in-module calls) while A is held — and rejects edges that
// contradict the ranked order table below, edges out of leaf-ranked
// locks into lower-ranked ones, nested acquisitions of one class, and
// any cycle anywhere in the observed graph.
package lockorder

// Level assigns one lock class its position in the global order. A lock
// class is "pkgname.TypeName.fieldname" for struct-field mutexes (the
// dominant shape in this module) or "pkgname.varname" for package-level
// mutexes. Lower ranks must be acquired first: an observed edge A → B is
// legal only when Rank(A) < Rank(B).
type Level struct {
	Class string
	Rank  int
	Note  string
}

// Order is the machine-readable global lock order of this module. It is
// the single source of truth — DESIGN.md ("Lock order") mirrors this
// table, and the lockorder analyzer fails the build when the code
// disagrees with it.
//
// The top of the table is the PR 3 deadlock class: session.mu may be
// held while taking Server.mu (removeSession does), so nothing may take
// session.mu while holding Server.mu — with an RWMutex a queued writer
// blocks new readers, and the inverted order wedges the whole server.
// Everything ranked >= leafRank is a leaf in practice: it protects
// private internals and must never be held across a call that acquires
// a lower-ranked lock.
var Order = []Level{
	{Class: "cluster.csession.mu", Rank: 6,
		Note: "per-cluster-session feed/failover serialization; held across node RPCs that resolve membership under Router.mu"},
	{Class: "cluster.Router.mu", Rank: 8,
		Note: "membership/ring/placement tables; taken bare or under one csession.mu — the reconciler snapshots session pointers before locking them"},
	{Class: "server.session.mu", Rank: 10,
		Note: "per-session feed serialization; held across checkpoint + removal"},
	{Class: "server.Server.reloadMu", Rank: 15,
		Note: "serializes rule-set reloads; held across Compile, so above Server.mu and everything below it"},
	{Class: "server.Server.mu", Rank: 20,
		Note: "ruleset/session tables; only taken bare or under one session.mu"},
	{Class: "server.TCPServer.mu", Rank: 30,
		Note: "TCP conn table; held while claiming idle conns"},
	{Class: "server.tcpConn.mu", Rank: 40,
		Note: "per-conn busy/closing state"},
	{Class: "server.wal.mu", Rank: 80,
		Note: "WAL framing; callers may append under session or server locks"},
	{Class: "telemetry.ReqTrace.mu", Rank: 82,
		Note: "trace state, request or compile; stage spans start under session.mu (walCheckpoint) and under Server.reloadMu (reload compiles inline), and Report and Finish lock each Span under it"},
	{Class: "telemetry.Span.mu", Rank: 84,
		Note: "per-span attrs/duration; innermost of the tracing pair"},
	{Class: "machine.Pool.mu", Rank: 85,
		Note: "lease free-list internals; leaf-only per DESIGN.md"},
	{Class: "server.batcher.mu", Rank: 85,
		Note: "batch generation accumulation; leaf-only — flush work runs after release"},
	{Class: "server.Server.qMu", Rank: 85,
		Note: "match queue counter; leaf-only"},
	{Class: "telemetry.Registry.mu", Rank: 85,
		Note: "metric name table; leaf-only"},
	{Class: "faults.Injector.mu", Rank: 90,
		Note: "unknown-point tracking inside faults.Check; innermost of all"},
}

// leafRank marks the strict leaves: a class ranked at or above it must
// have no outgoing edges at all — not even rank-ascending ones — because
// it guards private internals that must never call back into locking
// code. server.wal.mu sits just below the boundary: it is a leaf to the
// serving stack, but faults.Check (the injection seam inside Append)
// legitimately takes the injector's bookkeeping mutex under it.
const leafRank = 85

// rankOf returns the class's rank in the given table and whether the
// class is listed at all.
func rankOf(order []Level, class string) (int, bool) {
	for _, l := range order {
		if l.Class == class {
			return l.Rank, true
		}
	}
	return 0, false
}
