package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// TestRouterMountsOpTable ranges over the node's op table: every row
// that names a cluster op is reachable on the router and lands exactly
// one trace under "cluster."+that name; every node-only row is absent.
func TestRouterMountsOpTable(t *testing.T) {
	inputs := map[string]struct {
		key  string
		body any
	}{
		"rulesets.compile": {"fresh", server.CompileRequest{Patterns: []string{"abc"}}},
		"rulesets.list":    {},
		"rulesets.get":     {key: "ids"},
		"rulesets.delete":  {key: "ids"},
		"match":            {body: server.MatchRequest{Ruleset: "ids", Input: "a needle"}},
		"sessions.open":    {body: server.OpenSessionRequest{Ruleset: "ids"}},
		"sessions.list":    {},
		"sessions.feed":    {"c00000001", server.FeedRequest{Chunk: "xx needle"}},
		"sessions.suspend": {key: "c00000001"},
		"sessions.close":   {key: "c00000001"},
	}
	for _, op := range server.Ops {
		if op.Method == "" {
			continue
		}
		t.Run(op.Name, func(t *testing.T) {
			tc := startCluster(t, 1, fastConfig(nil))
			tc.waitTable("node alive", func(tab Table) bool { return tc.nodeState(tab, "n1") == stateAlive })
			ctx := context.Background()
			if _, err := tc.router.Compile(ctx, "ids", server.CompileRequest{Patterns: []string{"needle"}}); err != nil {
				t.Fatal(err)
			}
			if info, err := tc.router.OpenSession(ctx, server.OpenSessionRequest{Ruleset: "ids"}); err != nil || info.Session != "c00000001" {
				t.Fatalf("open fixture session: %+v, %v", info, err)
			}
			in, ok := inputs[op.Name]
			if op.Cluster == "" {
				if code, _ := tc.do(op.Method, op.URLPath("ids"), nil, nil); code != http.StatusNotFound {
					t.Fatalf("node-only row answered %d on the router, want 404", code)
				}
				return
			}
			if !ok {
				t.Fatalf("no test input for row %q", op.Name)
			}
			before := len(tc.router.Traces().All())
			code, hdr := tc.do(op.Method, op.URLPath(in.key), in.body, nil)
			if code != http.StatusOK {
				t.Fatalf("%s %s = %d", op.Method, op.URLPath(in.key), code)
			}
			all := tc.router.Traces().All()
			rep := tc.router.Traces().Find(hdr.Get("X-CA-Trace-Id"))
			if len(all) != before+1 || rep == nil || rep.Op != "cluster."+op.Cluster {
				t.Fatalf("%d new traces, the response's is %+v; want one with op %q", len(all)-before, rep, "cluster."+op.Cluster)
			}
			tc.noOpenStage()
		})
	}
}

// noOpenStage fails for every trace, on the router or a node, that
// Finish had to close a stage of.
func (tc *testCluster) noOpenStage() {
	tc.t.Helper()
	reps := tc.router.Traces().All()
	for _, node := range tc.nodes {
		reps = append(reps, node.Srv.Ring().All()...)
	}
	for _, rep := range reps {
		for _, n := range rep.Notes {
			if n.Key == "open_stage" {
				tc.t.Errorf("trace %s (%s) finished with stage %s open", rep.ID, rep.Op, n.Value)
			}
		}
	}
}

// TestRouterErrorPathsEndTheirStages: a 404 through the router ends
// every stage it opened, on the router and on the node it reached.
func TestRouterErrorPathsEndTheirStages(t *testing.T) {
	tc := startCluster(t, 1, fastConfig(nil))
	tc.waitTable("node alive", func(tab Table) bool { return tc.nodeState(tab, "n1") == stateAlive })
	if _, err := tc.router.Compile(context.Background(), "ids", server.CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/match", server.MatchRequest{Ruleset: "nope", Input: "x"}},
		{"/sessions/c99999999/feed", server.FeedRequest{Chunk: "x"}},
		{"/sessions", server.OpenSessionRequest{Ruleset: "nope"}},
	} {
		if code, _ := tc.do(http.MethodPost, c.path, c.body, nil); code != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", c.path, code)
		}
	}
	if n := len(tc.router.Traces().All()); n < 3 {
		t.Errorf("the router retained %d traces, want one per 404", n)
	}
	tc.noOpenStage()
}

// panicOn is a transport that panics on any request whose path contains
// its string and passes the rest (heartbeats included) through.
type panicOn string

func (p panicOn) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.Contains(req.URL.Path, string(p)) {
		panic("transport exploded on " + req.URL.Path)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterPanicIsolation: a panicking router op is a structured JSON
// 500 and a trace with outcome "panic", like on a node — not a torn
// connection.
func TestRouterPanicIsolation(t *testing.T) {
	cfg := fastConfig(nil)
	cfg.Client = &http.Client{Transport: panicOn("boom")}
	tc := startCluster(t, 1, cfg)
	tc.waitTable("node alive", func(tab Table) bool { return tc.nodeState(tab, "n1") == stateAlive })

	data, _ := json.Marshal(server.CompileRequest{Patterns: []string{"x"}})
	req, _ := http.NewRequest(http.MethodPut, tc.front.URL+"/rulesets/boom", strings.NewReader(string(data)))
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatalf("panicking op tore the connection: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, "internal panic") {
		t.Fatalf("panicking op = %d %+v (%v), want structured 500", resp.StatusCode, body, err)
	}
	rep := tc.router.Traces().Find(resp.Header.Get("X-CA-Trace-Id"))
	if rep == nil || rep.Outcome != "panic" || rep.Op != "cluster.compile" {
		t.Fatalf("trace of the panicking op = %+v, want outcome panic", rep)
	}
	// The router keeps serving.
	if code, _ := tc.do(http.MethodPut, "/rulesets/fine", server.CompileRequest{Patterns: []string{"x"}}, nil); code != http.StatusOK {
		t.Fatalf("compile after the panic: %d", code)
	}
}

// TestRouterOversizedBody: a body over the router's cap is 413, the
// status a node gives, not 400.
func TestRouterOversizedBody(t *testing.T) {
	tc := startCluster(t, 0, fastConfig(nil))
	body := `{"ruleset":"ids","input":"` + strings.Repeat("x", 4096) + `"}`
	rec := httptest.NewRecorder()
	tc.router.handler(1024).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/match", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("oversized body = %d %s, want structured 413", rec.Code, rec.Body)
	}
}

// TestRouterRepliesByteIdentical: through a router in front of
// LocalNodes, the replies to match, sessions.feed and sessions.suspend
// are json.Marshal of what a standalone twin node returns in process,
// plus "\n" — the bytes json.Encoder wrote before the wire codec, on
// both the router's client side and its node hop.
func TestRouterRepliesByteIdentical(t *testing.T) {
	tc := startCluster(t, 2, fastConfig(nil))
	tc.waitTable("nodes alive", func(tab Table) bool {
		return tc.nodeState(tab, "n1") == stateAlive && tc.nodeState(tab, "n2") == stateAlive
	})
	ctx := context.Background()
	twin := server.New(nodeConfig())
	t.Cleanup(func() { _ = twin.Shutdown(ctx) })
	for _, c := range []interface {
		Compile(context.Context, string, server.CompileRequest) (*server.RulesetInfo, error)
	}{tc.router, twin} {
		if _, err := c.Compile(ctx, "ids", server.CompileRequest{Patterns: []string{"needle", "a<b>&c"}}); err != nil {
			t.Fatal(err)
		}
	}
	routed, err := tc.router.OpenSession(ctx, server.OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	local, err := twin.OpenSession(ctx, server.OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	invalid := base64.StdEncoding.EncodeToString([]byte("needle \xff a<b>&c"))
	for _, st := range []struct {
		path string
		body any
	}{
		{"/match", server.MatchRequest{Ruleset: "ids", Input: "a needle, a<b>&c \u2028 needle"}},
		{"/match", server.MatchRequest{Ruleset: "ids", InputB64: invalid, Shards: 2}},
		{"/sessions/" + routed.Session + "/feed", server.FeedRequest{Chunk: "xx nee"}},
		{"/sessions/" + routed.Session + "/feed", server.FeedRequest{Chunk: "dle a<b>&c"}},
		{"/sessions/" + routed.Session + "/suspend", nil},
	} {
		var body io.Reader
		if st.body != nil {
			data, err := json.Marshal(st.body)
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(data)
		}
		resp, err := tc.client.Post(tc.front.URL+st.path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %q %v", st.path, resp.StatusCode, got, err)
		}
		var v any
		switch req := st.body.(type) {
		case server.MatchRequest:
			v, err = twin.Match(ctx, req)
		case server.FeedRequest:
			v, err = twin.Feed(ctx, local.Session, req)
		default:
			v, err = twin.Suspend(ctx, local.Session)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("POST %s through the router:\ngot  %q\nwant %q", st.path, got, want)
		}
	}
}

// TestNodeClientSendsOnceRowsOnce: against a node that sheds every call
// with 503, a row marked Once (the feed) is sent exactly once whichever
// helper sends it, while any other row gets the retry policy's full
// attempt budget.
func TestNodeClientSendsOnceRowsOnce(t *testing.T) {
	var mu sync.Mutex
	hits := map[string]int{}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		hits[req.URL.Path]++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"error":"shedding"}`)
	}))
	defer node.Close()
	cfg := fastConfig(telemetry.NewRegistry())
	r := NewRouter(cfg)
	ctx := context.Background()
	defer func() { _ = r.Shutdown(ctx) }()
	if err := r.AddNode(ctx, "n1", node.URL); err != nil {
		t.Fatal(err)
	}

	if _, err := call[server.FeedResponse](ctx, r, "n1", "sessions.feed", "s1", &server.FeedRequest{Chunk: "x"}); hopStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("feed: %v, want the node's 503", err)
	}
	if err := r.rpc(ctx, "n1", "sessions.checkpoint", "s1", nil, nil); hopStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint: %v, want the node's 503", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := hits["/sessions/s1/feed"]; got != 1 {
		t.Errorf("sessions.feed sent %d times, want 1: a feed is never resent", got)
	}
	if got, want := hits["/sessions/s1/checkpoint"], cfg.RPC.MaxAttempts; got != want {
		t.Errorf("sessions.checkpoint sent %d times, want the policy's %d attempts", got, want)
	}
}
