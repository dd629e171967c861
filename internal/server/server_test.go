package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/difftest"
	"cacheautomaton/internal/telemetry"
)

// testServer spins up a Server with a private registry and an httptest
// front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// doJSON posts body (marshaled) and decodes the response into out,
// returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func compileRules(t *testing.T, ts *httptest.Server, name string, patterns ...string) {
	t.Helper()
	var info RulesetInfo
	code := doJSON(t, "PUT", ts.URL+"/rulesets/"+name, CompileRequest{Patterns: patterns}, &info)
	if code != 200 {
		t.Fatalf("compile %v: status %d", patterns, code)
	}
	if info.Name != name || info.States == 0 || info.Partitions == 0 {
		t.Fatalf("compile info = %+v", info)
	}
}

func TestCompileFormatsAndErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	compileRules(t, ts, "re", "cat", "dog.*food")

	// Snort and ClamAV formats.
	var info RulesetInfo
	snort := `alert tcp any any (content:"/cgi-bin/phf"; sid:42;)`
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/ids", CompileRequest{Format: "snort", Text: snort}, &info); code != 200 {
		t.Fatalf("snort compile: %d", code)
	}
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/av", CompileRequest{Format: "clamav", Text: "Sig.A:414243"}, &info); code != 200 {
		t.Fatalf("clamav compile: %d", code)
	}
	if len(info.SignatureNames) != 1 || info.SignatureNames[0] != "Sig.A" {
		t.Fatalf("clamav info = %+v", info)
	}

	// Space design.
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/sp", CompileRequest{Patterns: []string{"cat", "category"}, Design: "space"}, &info); code != 200 {
		t.Fatalf("space compile: %d", code)
	}

	// Structured errors.
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/bad", CompileRequest{Patterns: []string{"(unclosed"}}, &e); code != 422 || e.Error == "" {
		t.Errorf("bad pattern: code %d err %q", code, e.Error)
	}
	// A nested counted repetition is refused by its expansion bound, also
	// when the request raises max_repeat: 20 bytes cannot ask for 16.7 M
	// states.
	for _, req := range []CompileRequest{
		{Patterns: []string{"((a{256}){256}){256}"}},
		{Patterns: []string{"((a{4096}){4096})"}, MaxRepeat: 4096},
	} {
		if code := doJSON(t, "PUT", ts.URL+"/rulesets/bad", req, &e); code != 422 || !strings.HasPrefix(e.Error, "compile: ") || !strings.Contains(e.Error, "positions") {
			t.Errorf("nested repeat %q: code %d err %q", req.Patterns[0], code, e.Error)
		}
	}
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/bad", CompileRequest{}, &e); code != 400 {
		t.Errorf("empty compile: code %d", code)
	}
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/bad", CompileRequest{Patterns: []string{"a"}, Design: "quantum"}, &e); code != 400 || e.Error != `unknown design "quantum" (want perf or space)` {
		t.Errorf("bad design: code %d err %q", code, e.Error)
	}
	if code := doJSON(t, "GET", ts.URL+"/rulesets/nope", nil, &e); code != 404 {
		t.Errorf("missing ruleset: code %d", code)
	}

	// Listing is sorted and delete works.
	var list []RulesetInfo
	if code := doJSON(t, "GET", ts.URL+"/rulesets", nil, &list); code != 200 || len(list) != 4 {
		t.Fatalf("list: code %d, %d entries", code, len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].Name < list[i-1].Name {
			t.Errorf("list unsorted: %v", list)
		}
	}
	if code := doJSON(t, "DELETE", ts.URL+"/rulesets/av", nil, nil); code != 200 {
		t.Errorf("delete: %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/rulesets/av", nil, &e); code != 404 {
		t.Errorf("double delete: %d", code)
	}
}

func TestMatchOneShot(t *testing.T) {
	_, ts := testServer(t, Config{})
	compileRules(t, ts, "re", "cat", "dog.*food")

	var resp MatchResponse
	code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "re", Input: "the cat ate dog brand food"}, &resp)
	if code != 200 {
		t.Fatalf("match: %d", code)
	}
	if len(resp.Matches) != 2 || resp.Matches[0].Pattern != 0 || resp.Matches[0].Offset != 6 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	if resp.Stats.Cycles != 26 || resp.Stats.Matches != 2 || resp.Stats.EnergyPJPerSymbol <= 0 {
		t.Fatalf("stats = %+v", resp.Stats)
	}

	// Binary payloads ride base64.
	b64 := base64.StdEncoding.EncodeToString([]byte("a cat\x00\xffcat"))
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "re", InputB64: b64}, &resp); code != 200 || len(resp.Matches) != 2 {
		t.Fatalf("base64 match: code %d resp %+v", code, resp)
	}

	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "nope", Input: "x"}, &e); code != 404 {
		t.Errorf("match on missing ruleset: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "re", Input: "x", InputB64: "eA=="}, &e); code != 400 {
		t.Errorf("both payloads: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "re", InputB64: "!!!"}, &e); code != 400 {
		t.Errorf("bad base64: %d", code)
	}
}

// TestMatchDifferential is the serving half of the differential harness:
// /match (sequential and sharded) must agree with the Go regexp oracle.
func TestMatchDifferential(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := difftest.New(7)
	cases := 30
	if testing.Short() {
		cases = 10
	}
	for i := 0; i < cases; i++ {
		patterns := g.Patterns(3)
		input := g.Input(64 + i)
		oracle, err := difftest.NewOracle(patterns)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("d%d", i)
		var info RulesetInfo
		if code := doJSON(t, "PUT", ts.URL+"/rulesets/"+name, CompileRequest{Patterns: patterns}, &info); code != 200 {
			t.Fatalf("case %d compile %q: %d", i, patterns, code)
		}
		var resp MatchResponse
		if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: name, InputB64: base64.StdEncoding.EncodeToString(input)}, &resp); code != 200 {
			t.Fatalf("case %d match: %d", i, code)
		}
		got := make([]difftest.Report, len(resp.Matches))
		for j, m := range resp.Matches {
			got[j] = difftest.Report{Pattern: m.Pattern, Offset: m.Offset}
		}
		if d := difftest.Diff(oracle.Reports(input), difftest.Set(got)); d != "" {
			t.Fatalf("case %d: /match diverges from oracle\npatterns=%q input=%q\n%s", i, patterns, input, d)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	compileRules(t, ts, "re", "handoff")

	var sess SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &sess); code != 200 {
		t.Fatalf("open: %d", code)
	}
	var feed FeedResponse
	if code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: "...hand"}, &feed); code != 200 {
		t.Fatalf("feed: %d", code)
	}
	if len(feed.Matches) != 0 || feed.Pos != 7 {
		t.Fatalf("feed = %+v", feed)
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: "off..."}, &feed); code != 200 {
		t.Fatalf("feed 2: %d", code)
	}
	if len(feed.Matches) != 1 || feed.Matches[0].Offset != 9 {
		t.Fatalf("feed 2 = %+v", feed)
	}

	var list []SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/sessions", nil, &list); code != 200 || len(list) != 1 {
		t.Fatalf("sessions list: %d, %v", code, list)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/sessions/"+sess.Session, nil, nil); code != 200 {
		t.Fatalf("close: %d", code)
	}
	// With nothing open the list is an empty JSON array, never null.
	resp, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(bytes.TrimSpace(body)) != "[]" {
		t.Fatalf("sessions list after the last close = %q (%v), want []", body, err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: "x"}, &e); code != 404 {
		t.Errorf("feed after close: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "nope"}, &e); code != 404 {
		t.Errorf("open on missing ruleset: %d", code)
	}
}

// TestSessionMigration suspends a mid-match session on server A and
// resumes it on a separate server B: the remaining matches must come out
// identical to an uninterrupted run, across the process boundary the two
// servers simulate.
func TestSessionMigration(t *testing.T) {
	_, tsA := testServer(t, Config{})
	_, tsB := testServer(t, Config{})
	for _, ts := range []*httptest.Server{tsA, tsB} {
		compileRules(t, ts, "re", "handoff", "h.{3}off")
	}

	// Uninterrupted reference.
	input := "...handoff; handoff again; hXYZoff too"
	var ref MatchResponse
	if code := doJSON(t, "POST", tsA.URL+"/match", MatchRequest{Ruleset: "re", Input: input}, &ref); code != 200 {
		t.Fatalf("reference match: %d", code)
	}

	cut := 7 // mid-"handoff"
	var sess SessionInfo
	if code := doJSON(t, "POST", tsA.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &sess); code != 200 {
		t.Fatal("open")
	}
	var feed FeedResponse
	doJSON(t, "POST", tsA.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: input[:cut]}, &feed)
	got := append([]WireMatch(nil), feed.Matches...)

	var susp SuspendResponse
	if code := doJSON(t, "POST", tsA.URL+"/sessions/"+sess.Session+"/suspend", nil, &susp); code != 200 {
		t.Fatalf("suspend: %d", code)
	}
	if susp.Pos != int64(cut) || susp.SnapshotB64 == "" {
		t.Fatalf("suspend = %+v", susp)
	}
	// The session is gone on A.
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", tsA.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: "x"}, &e); code != 404 {
		t.Errorf("feed after suspend: %d", code)
	}

	// Resume on B and finish the stream.
	var sess2 SessionInfo
	if code := doJSON(t, "POST", tsB.URL+"/sessions", OpenSessionRequest{Ruleset: "re", SnapshotB64: susp.SnapshotB64}, &sess2); code != 200 {
		t.Fatalf("resume: %d", code)
	}
	if sess2.Pos != int64(cut) {
		t.Fatalf("resumed pos = %d, want %d", sess2.Pos, cut)
	}
	doJSON(t, "POST", tsB.URL+"/sessions/"+sess2.Session+"/feed", FeedRequest{Chunk: input[cut:]}, &feed)
	got = append(got, feed.Matches...)

	if len(got) != len(ref.Matches) {
		t.Fatalf("migrated matches = %+v, want %+v", got, ref.Matches)
	}
	for i := range got {
		if got[i] != ref.Matches[i] {
			t.Fatalf("migrated match %d = %+v, want %+v", i, got[i], ref.Matches[i])
		}
	}

	// A corrupted snapshot is a structured error, not a panic.
	if code := doJSON(t, "POST", tsB.URL+"/sessions", OpenSessionRequest{Ruleset: "re", SnapshotB64: base64.StdEncoding.EncodeToString([]byte("garbage"))}, &e); code != 422 {
		t.Errorf("garbage snapshot: %d", code)
	}
	if code := doJSON(t, "POST", tsB.URL+"/sessions", OpenSessionRequest{Ruleset: "re", SnapshotB64: "!!"}, &e); code != 400 {
		t.Errorf("bad snapshot base64: %d", code)
	}
}

func TestLimitsAndMalformedRequests(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 1024})
	compileRules(t, ts, "re", "cat")

	var e struct {
		Error string `json:"error"`
	}
	// Oversized body → structured 413.
	big := strings.Repeat("x", 4096)
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "re", Input: big}, &e); code != 413 || e.Error == "" {
		t.Errorf("oversized body: code %d err %q", code, e.Error)
	}
	// Malformed JSON → structured 400.
	resp, err := http.Post(ts.URL+"/match", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !json.Valid(data) {
		t.Errorf("malformed JSON: code %d body %q", resp.StatusCode, data)
	}
	// Unknown route → structured 404.
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 || !json.Valid(data) {
		t.Errorf("unknown route: code %d body %q", resp.StatusCode, data)
	}
}

func TestSessionLimit(t *testing.T) {
	_, ts := testServer(t, Config{MaxSessions: 2})
	compileRules(t, ts, "re", "cat")
	for i := 0; i < 2; i++ {
		var sess SessionInfo
		if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &sess); code != 200 {
			t.Fatalf("open %d: %d", i, code)
		}
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &e); code != 503 {
		t.Errorf("over-limit open: %d", code)
	}
}

func TestSessionIdleReaper(t *testing.T) {
	s, ts := testServer(t, Config{SessionIdle: 50 * time.Millisecond})
	compileRules(t, ts, "re", "cat")
	var sess SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &sess); code != 200 {
		t.Fatal("open")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(s.Sessions()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: "x"}, &e); code != 404 {
		t.Errorf("feed on reaped session: %d", code)
	}
}

// TestBackpressure saturates a 1-worker server whose worker is blocked
// and checks the queue sheds with structured 503s instead of queueing
// without bound.
func TestBackpressure(t *testing.T) {
	s := New(Config{
		MatchWorkers: 1,
		QueueDepth:   1,
		QueueWait:    50 * time.Millisecond,
		Registry:     telemetry.NewRegistry(),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if _, err := s.Compile(context.Background(), "re", CompileRequest{Patterns: []string{"cat"}}); err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot directly.
	s.slots <- struct{}{}

	// First arrival queues, times out after QueueWait → 503.
	start := time.Now()
	_, err := s.Match(context.Background(), MatchRequest{Ruleset: "re", Input: "x"})
	if err == nil || statusOf(err) != 503 {
		t.Fatalf("queued match: err %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Errorf("queue wait returned too fast: %v", time.Since(start))
	}

	// With the queue full (simulate a waiter), the next arrival sheds
	// instantly.
	s.qMu.Lock()
	s.queued = int64(s.cfg.QueueDepth)
	s.qMu.Unlock()
	start = time.Now()
	_, err = s.Match(context.Background(), MatchRequest{Ruleset: "re", Input: "x"})
	if err == nil || statusOf(err) != 503 {
		t.Fatalf("shed match: err %v", err)
	}
	if time.Since(start) > 25*time.Millisecond {
		t.Errorf("full queue did not shed instantly: %v", time.Since(start))
	}
	s.qMu.Lock()
	s.queued = 0
	s.qMu.Unlock()
	<-s.slots // release the slot

	// And a healthy server serves again.
	if _, err := s.Match(context.Background(), MatchRequest{Ruleset: "re", Input: "a cat"}); err != nil {
		t.Fatalf("healthy match: %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts := testServer(t, Config{})
	compileRules(t, ts, "re", "cat")
	var sess SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &sess); code != 200 {
		t.Fatal("open")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Draining: every operation refuses with 503, health says draining.
	if _, err := s.Match(context.Background(), MatchRequest{Ruleset: "re", Input: "x"}); statusOf(err) != 503 {
		t.Errorf("match while draining: %v", err)
	}
	if _, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "re"}); statusOf(err) != 503 {
		t.Errorf("open while draining: %v", err)
	}
	if h := s.Healthz(); h.Status != "draining" || h.Sessions != 0 {
		t.Errorf("health = %+v", h)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestServerMetricsWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := testServer(t, Config{Registry: reg})
	compileRules(t, ts, "re", "cat")
	var resp MatchResponse
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "re", Input: "a cat"}, &resp); code != 200 {
		t.Fatal("match")
	}
	var sess SessionInfo
	doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "re"}, &sess)
	var feed FeedResponse
	doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", FeedRequest{Chunk: "cat"}, &feed)
	var e struct {
		Error string `json:"error"`
	}
	doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "nope", Input: "x"}, &e)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"ca_server_requests_total 5",
		"ca_server_request_errors_total 1",
		"ca_server_rulesets 1",
		"ca_server_sessions_active 1",
		"ca_server_match_reports_total 2",
		"ca_server_match_input_bytes_total 5",
		"ca_server_session_bytes_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
