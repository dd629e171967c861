package cluster

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/server"
)

// TestClusterAdminSurface walks the router's control-plane endpoints:
// listing, deletion fan-out, session close, membership removal, health
// and the flight-recorder debug routes.
func TestClusterAdminSurface(t *testing.T) {
	tc := startCluster(t, 2, fastConfig(nil))
	tc.waitTable("both alive", func(tab Table) bool {
		return tc.nodeState(tab, "n1") == stateAlive && tc.nodeState(tab, "n2") == stateAlive
	})
	for _, name := range []string{"one", "two"} {
		if code, _ := tc.do(http.MethodPut, "/rulesets/"+name, server.CompileRequest{Patterns: []string{name}}, nil); code != http.StatusOK {
			t.Fatalf("compile %s: %d", name, code)
		}
	}

	var list []server.RulesetInfo
	if code, _ := tc.do(http.MethodGet, "/rulesets", nil, &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list rulesets: code %d, %d entries", code, len(list))
	}
	var info server.RulesetInfo
	if code, _ := tc.do(http.MethodGet, "/rulesets/one", nil, &info); code != http.StatusOK || info.Name != "one" {
		t.Fatalf("get ruleset: code %d info %+v", code, info)
	}
	if code, _ := tc.do(http.MethodGet, "/rulesets/absent", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get absent ruleset: code %d, want 404", code)
	}

	var sess server.SessionInfo
	if code, _ := tc.do(http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "one"}, &sess); code != http.StatusOK {
		t.Fatalf("open: %d", code)
	}
	var sessions []server.SessionInfo
	if code, _ := tc.do(http.MethodGet, "/sessions", nil, &sessions); code != http.StatusOK || len(sessions) != 1 {
		t.Fatalf("list sessions: code %d, %d entries", code, len(sessions))
	}
	if code, _ := tc.do(http.MethodDelete, "/sessions/"+sess.Session, nil, nil); code != http.StatusOK {
		t.Fatalf("close session: %d", code)
	}
	if code, _ := tc.do(http.MethodPost, "/sessions/"+sess.Session+"/feed", server.FeedRequest{Chunk: "x"}, nil); code != http.StatusNotFound {
		t.Fatalf("feed closed session: code %d, want 404", code)
	}
	if code, _ := tc.do(http.MethodGet, "/sessions", nil, &sessions); code != http.StatusOK || len(sessions) != 0 {
		t.Fatalf("sessions after close: %d entries", len(sessions))
	}
	if code, _ := tc.do(http.MethodPost, "/sessions/absent/suspend", nil, nil); code != http.StatusNotFound {
		t.Fatalf("suspend absent session: code %d, want 404", code)
	}

	// Deletion fans out to every holder: no node still serves the name.
	if code, _ := tc.do(http.MethodDelete, "/rulesets/one", nil, nil); code != http.StatusOK {
		t.Fatalf("delete ruleset: %d", code)
	}
	if code, _ := tc.do(http.MethodGet, "/rulesets/one", nil, nil); code != http.StatusNotFound {
		t.Fatal("deleted rule set still listed")
	}
	for id, node := range tc.nodes {
		if _, err := node.Srv.Ruleset("one"); err == nil {
			t.Fatalf("node %s still holds deleted rule set", id)
		}
	}
	if code, _ := tc.do(http.MethodPost, "/match", server.MatchRequest{Ruleset: "one", Input: "one"}, nil); code != http.StatusNotFound {
		t.Fatal("match against deleted rule set did not 404")
	}
	if code, _ := tc.do(http.MethodDelete, "/rulesets/one", nil, nil); code != http.StatusNotFound {
		t.Fatal("double delete did not 404")
	}

	// Health, readiness and the flight recorder.
	var h map[string]any
	if code, _ := tc.do(http.MethodGet, "/healthz", nil, &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: code %d body %v", code, h)
	}
	var rd map[string]any
	if code, _ := tc.do(http.MethodGet, "/readyz", nil, &rd); code != http.StatusOK || rd["quorum"] != true {
		t.Fatalf("readyz: code %d body %v", code, rd)
	}
	if code, _ := tc.do(http.MethodGet, "/debug/requests", nil, nil); code != http.StatusOK {
		t.Fatalf("debug/requests: %d", code)
	}
	if code, _ := tc.do(http.MethodGet, "/debug/requests?id=bogus", nil, nil); code != http.StatusNotFound {
		t.Fatal("bogus trace id did not 404")
	}
	resp, err := tc.client.Get(tc.front.URL + "/debug/requests?format=text")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("debug text dump: %v code %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed body and unknown route are structured errors.
	req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/match", strings.NewReader("{not json"))
	resp, err = tc.client.Do(req)
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %v code %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	if code, _ := tc.do(http.MethodGet, "/no/such/route", nil, nil); code != http.StatusNotFound {
		t.Fatal("unknown route did not 404")
	}

	// Membership removal: the node leaves the table and its arcs go.
	if code, _ := tc.do(http.MethodDelete, "/cluster/nodes/n2", nil, nil); code != http.StatusOK {
		t.Fatalf("remove node: %d", code)
	}
	tab := tc.waitTable("one member", func(tab Table) bool { return len(tab.Nodes) == 1 })
	if tc.nodeState(tab, "n2") != "absent" {
		t.Fatal("removed node still in table")
	}
	if code, _ := tc.do(http.MethodDelete, "/cluster/nodes/n2", nil, nil); code != http.StatusNotFound {
		t.Fatal("double remove did not 404")
	}
	if code, _ := tc.do(http.MethodPost, "/cluster/join", map[string]string{"id": "", "url": ""}, nil); code != http.StatusBadRequest {
		t.Fatal("join without id/url did not 400")
	}
}

// TestClusterRouterDrain verifies the router's own graceful stop: after
// Shutdown every call that would change something sheds with 503 —
// leaving the session and the placement in place — readiness flips,
// and reads keep answering.
func TestClusterRouterDrain(t *testing.T) {
	tc := startCluster(t, 1, fastConfig(nil))
	if code, _ := tc.do(http.MethodPut, "/rulesets/d", server.CompileRequest{Patterns: []string{"dd"}}, nil); code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	var sess server.SessionInfo
	if code, _ := tc.do(http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "d"}, &sess); code != http.StatusOK {
		t.Fatalf("open: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.router.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := tc.do(http.MethodGet, "/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", code)
	}
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/sessions", server.OpenSessionRequest{Ruleset: "d"}},
		{http.MethodPost, "/match", server.MatchRequest{Ruleset: "d", Input: "y"}},
		{http.MethodPost, "/sessions/" + sess.Session + "/feed", server.FeedRequest{Chunk: "dd"}},
		{http.MethodPost, "/sessions/" + sess.Session + "/suspend", nil},
		{http.MethodDelete, "/sessions/" + sess.Session, nil},
		{http.MethodDelete, "/rulesets/d", nil},
	} {
		if code, _ := tc.do(c.method, c.path, c.body, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s after drain: %d, want 503", c.method, c.path, code)
		}
	}
	var sessions []server.SessionInfo
	if code, _ := tc.do(http.MethodGet, "/sessions", nil, &sessions); code != http.StatusOK || len(sessions) != 1 || sessions[0].Pos != 0 {
		t.Fatalf("sessions after drain: code %d, %+v; want the one session, unfed", code, sessions)
	}
	if code, _ := tc.do(http.MethodGet, "/rulesets/d", nil, nil); code != http.StatusOK {
		t.Fatalf("rule set after drain: %d, want it still placed", code)
	}
	// Idempotent.
	if err := tc.router.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
