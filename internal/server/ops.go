package server

import (
	"context"
	"strings"
)

// API is the serving surface a node (*Server) and the cluster router
// (*cluster.Router) both implement: the ten ops a client may send to
// either without knowing which it is talking to.
type API interface {
	Compile(ctx context.Context, name string, req CompileRequest) (*RulesetInfo, error)
	Rulesets() []RulesetInfo
	Ruleset(name string) (*RulesetInfo, error)
	DeleteRuleset(ctx context.Context, name string) error
	Match(ctx context.Context, req MatchRequest) (*MatchResponse, error)
	OpenSession(ctx context.Context, req OpenSessionRequest) (*SessionInfo, error)
	Sessions() []SessionInfo
	Feed(ctx context.Context, id string, req FeedRequest) (*FeedResponse, error)
	Suspend(ctx context.Context, id string) (*SuspendResponse, error)
	CloseSession(ctx context.Context, id string) error
}

// Op is one row of the op table: everything a transport needs to mount
// an operation, declared once. Host.serve runs a row the same way
// whichever transport framed the request.
type Op struct {
	// Name is the trace op ("match"; mounted on TCP it becomes
	// "tcp."+TCP, on the router "cluster."+Cluster).
	Name string
	// Method and Path are the HTTP route; Path holds at most one
	// {wildcard}, the op's key. Empty Method: not on HTTP.
	Method, Path string
	// TCP is the line protocol's op name; empty: not on TCP.
	TCP string
	// Cluster is the router's trace-op suffix; empty: a node-only op the
	// router does not mount (its handler may assume a *Server).
	Cluster string
	// Admin gates the op on the host's bearer token.
	Admin bool
	// Once marks a call the router's node client sends a single time,
	// never retried: a resend could scan a chunk twice.
	Once bool
	// New allocates the request the body decodes into (nil: no body);
	// Optional lets a blank body through as a nil request.
	New      func() any
	Optional bool
	// Run executes the op: key is the path wildcard's value (rule-set
	// name or session id), req what New returned, filled in.
	Run func(ctx context.Context, a API, key string, req any) (any, error)
}

func body[R any]() any { return new(R) }

// onNode adapts the handler of a node-only row.
func onNode(run func(ctx context.Context, s *Server, key string, req any) (any, error)) func(context.Context, API, string, any) (any, error) {
	return func(ctx context.Context, a API, key string, req any) (any, error) {
		return run(ctx, a.(*Server), key, req)
	}
}

type okBody struct{}

func (okBody) MarshalJSON() ([]byte, error) { return []byte(`{"ok":true}`), nil }

// Ops is the op table. The node's HTTP mux, the TCP line framer and the
// cluster router all mount these rows, and the router's node client
// takes each call's method and path from them; DESIGN.md "Match
// serving" carries the same table for readers (a drift test compares
// the two).
var Ops = []Op{
	{Name: "rulesets.compile", Method: "PUT", Path: "/rulesets/{name}", TCP: "compile", Cluster: "compile", New: body[CompileRequest],
		Run: func(ctx context.Context, a API, name string, req any) (any, error) {
			return a.Compile(ctx, name, *req.(*CompileRequest))
		}},
	{Name: "rulesets.reload", Method: "POST", Path: "/rulesets/{name}/reload", Admin: true, New: body[CompileRequest], Optional: true,
		Run: onNode(func(ctx context.Context, s *Server, name string, req any) (any, error) {
			stored, _ := req.(*CompileRequest) // blank body: recompile the stored definition
			return s.Reload(ctx, name, stored)
		})},
	{Name: "rulesets.list", Method: "GET", Path: "/rulesets", TCP: "list_rulesets", Cluster: "rulesets",
		Run: func(_ context.Context, a API, _ string, _ any) (any, error) { return a.Rulesets(), nil }},
	{Name: "rulesets.artifact", Method: "GET", Path: "/rulesets/{name}/artifact",
		Run: onNode(func(_ context.Context, s *Server, name string, _ any) (any, error) { return s.Artifact(name) })},
	{Name: "rulesets.install", Method: "PUT", Path: "/rulesets/{name}/artifact", New: body[Artifact],
		Run: onNode(func(ctx context.Context, s *Server, name string, req any) (any, error) {
			return s.InstallArtifact(ctx, name, *req.(*Artifact))
		})},
	{Name: "rulesets.get", Method: "GET", Path: "/rulesets/{name}", Cluster: "ruleset",
		Run: func(_ context.Context, a API, name string, _ any) (any, error) { return a.Ruleset(name) }},
	{Name: "rulesets.delete", Method: "DELETE", Path: "/rulesets/{name}", Cluster: "delete",
		Run: func(ctx context.Context, a API, name string, _ any) (any, error) {
			return okBody{}, a.DeleteRuleset(ctx, name)
		}},
	{Name: "match", Method: "POST", Path: "/match", TCP: "match", Cluster: "match", New: body[MatchRequest],
		Run: func(ctx context.Context, a API, _ string, req any) (any, error) {
			return a.Match(ctx, *req.(*MatchRequest))
		}},
	{Name: "sessions.open", Method: "POST", Path: "/sessions", TCP: "open", Cluster: "sessions.open", New: body[OpenSessionRequest],
		Run: func(ctx context.Context, a API, _ string, req any) (any, error) {
			return a.OpenSession(ctx, *req.(*OpenSessionRequest))
		}},
	{Name: "sessions.list", Method: "GET", Path: "/sessions", TCP: "list_sessions", Cluster: "sessions.list",
		Run: func(_ context.Context, a API, _ string, _ any) (any, error) { return a.Sessions(), nil }},
	{Name: "sessions.feed", Method: "POST", Path: "/sessions/{id}/feed", TCP: "feed", Cluster: "sessions.feed", Once: true, New: body[FeedRequest],
		Run: func(ctx context.Context, a API, id string, req any) (any, error) {
			return a.Feed(ctx, id, *req.(*FeedRequest))
		}},
	{Name: "sessions.suspend", Method: "POST", Path: "/sessions/{id}/suspend", TCP: "suspend", Cluster: "sessions.suspend",
		Run: func(ctx context.Context, a API, id string, _ any) (any, error) { return a.Suspend(ctx, id) }},
	{Name: "sessions.checkpoint", Method: "POST", Path: "/sessions/{id}/checkpoint",
		Run: onNode(func(ctx context.Context, s *Server, id string, _ any) (any, error) { return s.Checkpoint(ctx, id) })},
	{Name: "sessions.close", Method: "DELETE", Path: "/sessions/{id}", TCP: "close", Cluster: "sessions.close",
		Run: func(ctx context.Context, a API, id string, _ any) (any, error) {
			return okBody{}, a.CloseSession(ctx, id)
		}},
	{Name: "health", TCP: "health",
		Run: onNode(func(_ context.Context, s *Server, _ string, _ any) (any, error) { return s.Healthz(), nil })},
	{Name: "ping", TCP: "ping",
		Run: func(context.Context, API, string, any) (any, error) { return "pong", nil }},
}

// Route returns the row named name — how the router's node client
// learns a call's method and path. An unknown name is a programming
// error.
func Route(name string) *Op {
	for i := range Ops {
		if Ops[i].Name == name {
			return &Ops[i]
		}
	}
	panic("server: no op " + name)
}

// split cuts Path around its wildcard: "/sessions/{id}/feed" is
// "/sessions/", "id", "/feed".
func (o *Op) split() (pre, key, post string) {
	i, j := strings.IndexByte(o.Path, '{'), strings.IndexByte(o.Path, '}')
	if i < 0 {
		return o.Path, "", ""
	}
	return o.Path[:i], o.Path[i+1 : j], o.Path[j+1:]
}

// URLPath is Path with its wildcard set to key.
func (o *Op) URLPath(key string) string {
	pre, _, post := o.split()
	return pre + key + post
}

// tcpOps indexes the rows the line protocol serves by their TCP name,
// renamed to the trace op they run under there.
var tcpOps = func() map[string]*Op {
	m := make(map[string]*Op)
	for _, op := range Ops {
		if op.TCP != "" {
			op.Name = "tcp." + op.TCP
			m[op.TCP] = &op
		}
	}
	return m
}()
