package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/retry"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// testCluster is the in-process harness: N LocalNodes behind one
// Router served over real loopback HTTP.
type testCluster struct {
	t      *testing.T
	router *Router
	reg    *telemetry.Registry
	nodes  map[string]*LocalNode
	front  *httptest.Server
	client *http.Client
}

func nodeConfig() server.Config {
	return server.Config{
		Registry: telemetry.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// fastConfig is a router tuned for test time: heartbeats every 20ms,
// dead after 4 misses (~80ms), minimal retry backoff.
func fastConfig(reg *telemetry.Registry) Config {
	return Config{
		HeartbeatInterval: 20 * time.Millisecond,
		HedgeDelay:        20 * time.Millisecond,
		Registry:          reg,
		RPC: retry.Policy{
			MaxAttempts:    3,
			BaseDelay:      2 * time.Millisecond,
			MaxDelay:       20 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
		},
	}
}

func startCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:      t,
		reg:    cfg.Registry,
		nodes:  make(map[string]*LocalNode),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	if tc.reg == nil {
		tc.reg = telemetry.NewRegistry()
		cfg.Registry = tc.reg
	}
	tc.router = NewRouter(cfg)
	tc.front = httptest.NewServer(tc.router.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = tc.router.Shutdown(ctx)
		tc.front.Close()
		for _, node := range tc.nodes {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = node.Stop(sctx)
			scancel()
		}
	})
	for i := 1; i <= n; i++ {
		tc.addNode(fmt.Sprintf("n%d", i))
	}
	return tc
}

func (tc *testCluster) addNode(id string) *LocalNode {
	tc.t.Helper()
	node, err := StartLocalNode(id, nodeConfig())
	if err != nil {
		tc.t.Fatalf("start node %s: %v", id, err)
	}
	tc.nodes[id] = node
	if err := tc.router.AddNode(context.Background(), id, node.URL); err != nil {
		tc.t.Fatalf("join node %s: %v", id, err)
	}
	return node
}

// do issues one JSON request against the router front-end.
func (tc *testCluster) do(method, path string, in, out any) (int, http.Header) {
	tc.t.Helper()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			tc.t.Fatal(err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, tc.front.URL+path, body)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.client.Do(req)
	if err != nil {
		tc.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			tc.t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitTable polls /cluster until cond holds (or fails the test).
func (tc *testCluster) waitTable(what string, cond func(Table) bool) Table {
	tc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tab Table
		code, _ := tc.do(http.MethodGet, "/cluster", nil, &tab)
		if code == http.StatusOK && cond(tab) {
			return tab
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("timed out waiting for %s; last table: %+v", what, tab)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (tc *testCluster) nodeState(tab Table, id string) string {
	for _, n := range tab.Nodes {
		if n.ID == id {
			return n.State
		}
	}
	return "absent"
}

var testRules = server.CompileRequest{Patterns: []string{"ab+c", "foo[0-9]+", "zz"}}

func TestClusterPlacementShipsArtifacts(t *testing.T) {
	tc := startCluster(t, 3, fastConfig(nil))
	tc.waitTable("all alive", func(tab Table) bool {
		return tc.nodeState(tab, "n1") == stateAlive && tc.nodeState(tab, "n2") == stateAlive && tc.nodeState(tab, "n3") == stateAlive
	})
	var info server.RulesetInfo
	code, _ := tc.do(http.MethodPut, "/rulesets/demo", testRules, &info)
	if code != http.StatusOK {
		t.Fatalf("compile via router: status %d", code)
	}
	if info.Patterns != 3 {
		t.Fatalf("compiled %d patterns, want 3", info.Patterns)
	}
	tab := tc.waitTable("2 holders", func(tab Table) bool {
		return len(tab.Rulesets["demo"].Holders) == 2
	})
	holders := tab.Rulesets["demo"].Holders

	// The replica installed the shipped artifact; it must not have
	// recompiled. Its node-local info says Cached (loaded, not built).
	primary := tc.router.ring.Owners("rs/demo")
	var replica string
	for _, h := range holders {
		if h != primary[0] {
			replica = h
		}
	}
	if replica == "" {
		t.Fatalf("no replica among holders %v (primary %s)", holders, primary[0])
	}
	rinfo, err := tc.nodes[replica].Srv.Ruleset("demo")
	if err != nil {
		t.Fatalf("replica %s does not hold demo: %v", replica, err)
	}
	if !rinfo.Cached {
		t.Fatalf("replica %s recompiled the rule set; artifact shipping must install without recompiling", replica)
	}
	if shipped := readCounter(t, tc.reg, "ca_cluster_artifacts_shipped_total"); shipped < 1 {
		t.Fatalf("ca_cluster_artifacts_shipped_total = %d, want >= 1", shipped)
	}

	// Matching through the router hits a holder and returns real matches.
	var mr server.MatchResponse
	code, hdr := tc.do(http.MethodPost, "/match", server.MatchRequest{Ruleset: "demo", Input: "xxabbbc foo42 zz"}, &mr)
	if code != http.StatusOK {
		t.Fatalf("match via router: status %d", code)
	}
	// "foo42" reports at every accepting position (foo4, foo42).
	if len(mr.Matches) != 4 {
		t.Fatalf("router match found %d matches, want 4: %+v", len(mr.Matches), mr.Matches)
	}
	if hdr.Get("X-CA-Trace-Id") == "" {
		t.Fatal("router response missing X-CA-Trace-Id")
	}
}

func TestClusterTracePropagation(t *testing.T) {
	tc := startCluster(t, 2, fastConfig(nil))
	code, _ := tc.do(http.MethodPut, "/rulesets/tp", server.CompileRequest{Patterns: []string{"q+"}}, nil)
	if code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	_, hdr := tc.do(http.MethodPost, "/match", server.MatchRequest{Ruleset: "tp", Input: "qqq"}, nil)
	id := hdr.Get("X-CA-Trace-Id")
	if id == "" {
		t.Fatal("no trace id on router match response")
	}
	// The router minted the id; the node that executed the match must
	// have recorded its local stages under the same id.
	found := false
	for _, node := range tc.nodes {
		resp, err := tc.client.Get(node.URL + "/debug/requests?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not found on any node's flight recorder; X-CA-Trace-Id propagation broken", id)
	}
	if tc.router.Traces().Find(id) == nil {
		t.Fatalf("trace %s not in the router's own flight recorder", id)
	}
}

// TestClusterRPCFaultNotes pins the router's half of fault accounting:
// with the cluster.rpc seam failing every attempt, a routed /match fails
// and the router's own trace of it carries one fault=cluster.rpc note per
// attempt that fired. Heartbeats are slowed to an hour so the match's
// attempts are the only ones the injector counts.
func TestClusterRPCFaultNotes(t *testing.T) {
	cfg := fastConfig(nil)
	cfg.HeartbeatInterval = time.Hour
	tc := startCluster(t, 2, cfg)
	if code, _ := tc.do(http.MethodPut, "/rulesets/rf", server.CompileRequest{Patterns: []string{"r+"}}, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	tc.waitTable("2 holders", func(tab Table) bool { return len(tab.Rulesets["rf"].Holders) == 2 })

	in := faults.NewInjector(1, map[string]faults.Rule{faultRPC: {Rate: 1}})
	faults.Enable(in)
	code, hdr := tc.do(http.MethodPost, "/match", server.MatchRequest{Ruleset: "rf", Input: "rrr"}, nil)
	faults.Disable()
	if code < 500 {
		t.Fatalf("match with every hop faulted: status %d, want 5xx", code)
	}
	rep := tc.router.Traces().Find(hdr.Get("X-CA-Trace-Id"))
	if rep == nil {
		t.Fatalf("trace %q not in the router's flight recorder", hdr.Get("X-CA-Trace-Id"))
	}
	noted := 0
	for _, n := range rep.Notes {
		if n.Key == "fault" {
			if n.Value != faultRPC {
				t.Errorf("unexpected fault note %q", n.Value)
			}
			noted++
		}
	}
	fired := in.Stats()[faultRPC].Errors
	if fired == 0 || uint64(noted) != fired {
		t.Fatalf("injector fired %d cluster.rpc faults, the router's trace carries %d notes", fired, noted)
	}
}

func TestClusterHedgedMatch(t *testing.T) {
	cfg := fastConfig(nil)
	cfg.HedgeDelay = time.Nanosecond // hedge effectively always fires
	tc := startCluster(t, 3, cfg)
	tc.waitTable("all alive", func(tab Table) bool {
		return tc.nodeState(tab, "n3") == stateAlive
	})
	if code, _ := tc.do(http.MethodPut, "/rulesets/h", server.CompileRequest{Patterns: []string{"hh"}}, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	tc.waitTable("2 holders", func(tab Table) bool { return len(tab.Rulesets["h"].Holders) == 2 })
	for i := 0; i < 10; i++ {
		var mr server.MatchResponse
		if code, _ := tc.do(http.MethodPost, "/match", server.MatchRequest{Ruleset: "h", Input: "ahha"}, &mr); code != http.StatusOK {
			t.Fatalf("match %d: status %d", i, code)
		}
		if len(mr.Matches) != 1 {
			t.Fatalf("match %d: got %d matches, want 1", i, len(mr.Matches))
		}
	}
	if hedged := readCounter(t, tc.reg, "ca_cluster_hedged_matches_total"); hedged == 0 {
		t.Fatal("hedge never fired with a nanosecond hedge delay")
	}
}

func TestClusterSessionFailoverOnKill(t *testing.T) {
	tc := startCluster(t, 3, fastConfig(nil))
	tc.waitTable("all alive", func(tab Table) bool {
		return tc.nodeState(tab, "n1") == stateAlive && tc.nodeState(tab, "n2") == stateAlive && tc.nodeState(tab, "n3") == stateAlive
	})
	if code, _ := tc.do(http.MethodPut, "/rulesets/demo", testRules, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}

	var sess server.SessionInfo
	if code, _ := tc.do(http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "demo"}, &sess); code != http.StatusOK {
		t.Fatalf("open session: %d", code)
	}
	feed := func(chunk string) *server.FeedResponse {
		t.Helper()
		var fr server.FeedResponse
		deadline := time.Now().Add(15 * time.Second)
		for {
			code, _ := tc.do(http.MethodPost, "/sessions/"+sess.Session+"/feed", server.FeedRequest{Chunk: chunk}, &fr)
			if code == http.StatusOK {
				return &fr
			}
			if code != http.StatusServiceUnavailable || time.Now().After(deadline) {
				t.Fatalf("feed: status %d", code)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Split a match across the kill: "ab" before, "bc" after. Exact
	// resume means the automaton still completes "ab+c" across the
	// failover boundary.
	r1 := feed("xx ab")
	if len(r1.Matches) != 0 {
		t.Fatalf("premature matches: %+v", r1.Matches)
	}

	cs, err := tc.router.lockSession(sess.Session)
	if err != nil {
		t.Fatal(err)
	}
	owner := cs.node
	cs.mu.Unlock()
	tc.nodes[owner].Kill()

	r2 := feed("bc foo7!")
	wantOffsets := []int64{6, 11} // "ab bc" completes ab+c at abs 6; foo7 ends at 11
	if len(r2.Matches) != 2 || r2.Matches[0].Offset != wantOffsets[0] || r2.Matches[1].Offset != wantOffsets[1] {
		t.Fatalf("post-failover matches = %+v, want offsets %v (bit-identical resume across the kill)", r2.Matches, wantOffsets)
	}
	cs.mu.Lock()
	newOwner := cs.node
	cs.mu.Unlock()
	if newOwner == owner {
		t.Fatalf("session still owned by killed node %s", owner)
	}
	if fo := readCounter(t, tc.reg, "ca_cluster_failovers_total"); fo < 1 {
		t.Fatalf("ca_cluster_failovers_total = %d, want >= 1", fo)
	}
	if cp := readCounter(t, tc.reg, "ca_cluster_checkpoints_shipped_total"); cp < 1 {
		t.Fatalf("ca_cluster_checkpoints_shipped_total = %d, want >= 1", cp)
	}
}

func TestClusterMinorityPartitionRefusesPlacement(t *testing.T) {
	tc := startCluster(t, 3, fastConfig(nil))
	tc.waitTable("all alive", func(tab Table) bool {
		return tc.nodeState(tab, "n3") == stateAlive
	})
	if code, _ := tc.do(http.MethodPut, "/rulesets/p", server.CompileRequest{Patterns: []string{"pp"}}, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	tc.waitTable("2 holders", func(tab Table) bool { return len(tab.Rulesets["p"].Holders) == 2 })

	// Partition two of three nodes away from the router: minority view.
	faults.Enable(faults.NewInjector(7, map[string]faults.Rule{
		faultRPCPrefix + "n2": {Rate: 1},
		faultRPCPrefix + "n3": {Rate: 1},
	}))
	defer faults.Disable()
	tc.waitTable("minority", func(tab Table) bool { return !tab.Quorum })

	// Placement changes are refused with 503 + Retry-After.
	code, hdr := tc.do(http.MethodPut, "/rulesets/newset", server.CompileRequest{Patterns: []string{"nn"}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("compile in minority partition: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// A join is a membership change, shed the same way.
	code, hdr = tc.do(http.MethodPost, "/cluster/join", map[string]string{"id": "n4", "url": "http://127.0.0.1:1"}, nil)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("join in minority partition: status %d, Retry-After %q; want 503 with Retry-After", code, hdr.Get("Retry-After"))
	}
	if refused := readCounter(t, tc.reg, "ca_cluster_placements_refused_total"); refused < 1 {
		t.Fatalf("ca_cluster_placements_refused_total = %d, want >= 1", refused)
	}

	// Reads still serve if a reachable replica holds the rule set.
	if _, err := tc.router.matchCandidates("p"); err == nil {
		var mr server.MatchResponse
		if code, _ := tc.do(http.MethodPost, "/match", server.MatchRequest{Ruleset: "p", Input: "appa"}, &mr); code != http.StatusOK {
			t.Fatalf("read in minority partition with reachable holder: status %d", code)
		}
	}

	// Heal: quorum returns, the refused placement now succeeds.
	faults.Disable()
	tc.waitTable("healed", func(tab Table) bool { return tab.Quorum })
	if code, _ := tc.do(http.MethodPut, "/rulesets/newset", server.CompileRequest{Patterns: []string{"nn"}}, nil); code != http.StatusOK {
		t.Fatalf("compile after heal: status %d", code)
	}
}

func TestClusterRejoinRebalances(t *testing.T) {
	tc := startCluster(t, 3, fastConfig(nil))
	tc.waitTable("all alive", func(tab Table) bool {
		return tc.nodeState(tab, "n3") == stateAlive
	})
	if code, _ := tc.do(http.MethodPut, "/rulesets/demo", testRules, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	// Open enough sessions that every node certainly prefers some.
	var ids []string
	for i := 0; i < 12; i++ {
		var s server.SessionInfo
		if code, _ := tc.do(http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "demo"}, &s); code != http.StatusOK {
			t.Fatalf("open %d: %d", i, code)
		}
		ids = append(ids, s.Session)
	}
	onNode := func(node string) int {
		n := 0
		for _, id := range ids {
			cs, err := tc.router.lockSession(id)
			if err != nil {
				continue
			}
			if cs.node == node {
				n++
			}
			cs.mu.Unlock()
		}
		return n
	}
	if onNode("n2") == 0 {
		t.Skip("hash placement put no session on n2; nothing to rebalance")
	}

	tc.nodes["n2"].Kill()
	tc.waitTable("n2 dead", func(tab Table) bool { return tc.nodeState(tab, "n2") == stateDead })
	// The reconciler eagerly fails the dead node's sessions over.
	deadline := time.Now().Add(10 * time.Second)
	for onNode("n2") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still owned by dead n2", onNode("n2"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Rejoin under the same id: ring arcs return, sessions migrate home.
	node, err := StartLocalNode("n2", nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc.nodes["n2"] = node
	if err := tc.router.AddNode(context.Background(), "n2", node.URL); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	tc.waitTable("n2 alive again", func(tab Table) bool { return tc.nodeState(tab, "n2") == stateAlive })
	deadline = time.Now().Add(10 * time.Second)
	for onNode("n2") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no session migrated back to rejoined n2")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if mig := readCounter(t, tc.reg, "ca_cluster_handoffs_total"); mig < 1 {
		t.Fatalf("ca_cluster_handoffs_total = %d, want >= 1 after rejoin", mig)
	}
	// Migrated sessions still feed correctly.
	for _, id := range ids[:3] {
		var fr server.FeedResponse
		if code, _ := tc.do(http.MethodPost, "/sessions/"+id+"/feed", server.FeedRequest{Chunk: "abc zz"}, &fr); code != http.StatusOK {
			t.Fatalf("feed %s after rebalance: %d", id, code)
		}
		if len(fr.Matches) != 2 {
			t.Fatalf("feed %s: %d matches, want 2", id, len(fr.Matches))
		}
	}
}

func TestClusterSuspendResumeRoundTrip(t *testing.T) {
	tc := startCluster(t, 2, fastConfig(nil))
	if code, _ := tc.do(http.MethodPut, "/rulesets/demo", testRules, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	var s server.SessionInfo
	if code, _ := tc.do(http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "demo"}, &s); code != http.StatusOK {
		t.Fatalf("open: %d", code)
	}
	var fr server.FeedResponse
	if code, _ := tc.do(http.MethodPost, "/sessions/"+s.Session+"/feed", server.FeedRequest{Chunk: "ab"}, &fr); code != http.StatusOK {
		t.Fatalf("feed: %d", code)
	}
	if fr.SnapshotB64 != "" {
		t.Fatal("cluster-internal checkpoint leaked to the client")
	}
	var sus server.SuspendResponse
	if code, _ := tc.do(http.MethodPost, "/sessions/"+s.Session+"/suspend", nil, &sus); code != http.StatusOK {
		t.Fatalf("suspend: %d", code)
	}
	if sus.Pos != 2 || sus.SnapshotB64 == "" {
		t.Fatalf("suspend pos=%d snapshot=%d bytes, want pos 2 and a snapshot", sus.Pos, len(sus.SnapshotB64))
	}
	// Resume through the router: the half-fed "ab" still completes ab+c.
	var s2 server.SessionInfo
	if code, _ := tc.do(http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "demo", SnapshotB64: sus.SnapshotB64}, &s2); code != http.StatusOK {
		t.Fatalf("resume: %d", code)
	}
	if s2.Pos != 2 {
		t.Fatalf("resumed at pos %d, want 2", s2.Pos)
	}
	if code, _ := tc.do(http.MethodPost, "/sessions/"+s2.Session+"/feed", server.FeedRequest{Chunk: "bc"}, &fr); code != http.StatusOK {
		t.Fatalf("feed after resume: %d", code)
	}
	if len(fr.Matches) != 1 || fr.Matches[0].Offset != 3 {
		t.Fatalf("resume lost automaton state: matches %+v, want one at offset 3", fr.Matches)
	}
}

// readCounter scrapes one counter from the registry's Prometheus text
// exposition — the same path the CI smoke and cabench use, so the test
// validates the metric names end to end.
func readCounter(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) == 2 && string(fields[0]) == name {
			var v float64
			if _, err := fmt.Sscanf(string(fields[1]), "%g", &v); err != nil {
				t.Fatalf("parse %s value %q: %v", name, fields[1], err)
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not found in registry", name)
	return 0
}
