package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/telemetry"
)

// getTrace fetches one trace by id from /debug/requests.
func getTrace(t *testing.T, url, id string) (*telemetry.ReqReport, int) {
	t.Helper()
	var rep telemetry.ReqReport
	code := doJSON(t, "GET", url+"/debug/requests?id="+id, nil, &rep)
	if code != 200 {
		return nil, code
	}
	return &rep, code
}

func stageNames(rep *telemetry.ReqReport) []string {
	var out []string
	for _, s := range rep.Stages {
		out = append(out, s.Name)
	}
	return out
}

func TestMatchTraceEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := testServer(t, Config{Registry: reg})
	compileRules(t, ts, "ids", "needle")

	req, _ := http.NewRequest("POST", ts.URL+"/match",
		strings.NewReader(`{"ruleset":"ids","input":"find the needle here"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-CA-Trace-Id")
	if id == "" {
		t.Fatal("no X-CA-Trace-Id header on /match")
	}

	rep, code := getTrace(t, ts.URL, id)
	if code != 200 {
		t.Fatalf("debug lookup status %d", code)
	}
	if rep.Op != "match" || rep.Outcome != "ok" || rep.Ruleset != "ids" {
		t.Fatalf("trace = op %q outcome %q ruleset %q", rep.Op, rep.Outcome, rep.Ruleset)
	}
	got := strings.Join(stageNames(rep), ",")
	for _, stage := range []string{"queue", "lease", "run"} {
		if !strings.Contains(got, stage) {
			t.Fatalf("stages = %s, missing %q", got, stage)
		}
	}

	// The same trace renders as text.
	httpReq, _ := http.NewRequest("GET", ts.URL+"/debug/requests?id="+id+"&format=text", nil)
	txtResp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer txtResp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := txtResp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(b.String(), id) || !strings.Contains(b.String(), "run") {
		t.Fatalf("text format missing id/stages:\n%s", b.String())
	}

	// The full snapshot lists it under recent.
	var snap telemetry.RingSnapshot
	if code := doJSON(t, "GET", ts.URL+"/debug/requests", nil, &snap); code != 200 {
		t.Fatalf("snapshot status %d", code)
	}
	found := false
	for _, r := range snap.Recent {
		if r.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatal("completed trace not in /debug/requests recent section")
	}

	// Per-stage and per-ruleset histograms moved.
	for _, stage := range []string{"queue", "lease", "run"} {
		if s.col.StageSeconds.With(stage).Count() == 0 {
			t.Fatalf("ca_server_stage_seconds{stage=%q} empty", stage)
		}
	}
	if s.col.RulesetSeconds.With("ids").Count() == 0 {
		t.Fatal("ca_server_ruleset_seconds{ruleset=\"ids\"} empty")
	}
}

// TestUnknownRulesetsShareNoneSeries: a rule-set name the server does
// not hold gets no series of its own, whatever the op, so requests for
// made-up names cannot push a real rule set's latency into "other". The
// flight recorder still shows the name that was asked for.
func TestUnknownRulesetsShareNoneSeries(t *testing.T) {
	s, ts := testServer(t, Config{Registry: telemetry.NewRegistry()})
	compileRules(t, ts, "ids", "needle")
	for i := 0; i < 70; i++ {
		name := fmt.Sprintf("ghost-%d", i)
		if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: name, Input: "x"}, nil); code != http.StatusNotFound {
			t.Fatalf("match on %s: status %d, want 404", name, code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"ruleset": "ghost-s"}, nil); code != http.StatusNotFound {
		t.Fatalf("open on unknown rule set: status %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/rulesets/ghost-d", nil, nil); code != http.StatusNotFound {
		t.Fatalf("delete of unknown rule set: status %d, want 404", code)
	}
	if code := doJSON(t, "PUT", ts.URL+"/rulesets/ghost-p", CompileRequest{Patterns: []string{"("}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("uncompilable install: status %d, want 422", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "ids", Input: "a needle"}, nil); code != 200 {
		t.Fatalf("match on ids: status %d", code)
	}
	if got := strings.Join(s.col.RulesetSeconds.Labels(), ","); got != "ids,none" {
		t.Fatalf("ruleset series = %s, want ids,none", got)
	}
	if n := s.col.RulesetSeconds.With("none").Count(); n != 73 {
		t.Fatalf("none series count = %d, want 73", n)
	}

	resp, err := http.Post(ts.URL+"/match", "application/json", strings.NewReader(`{"ruleset":"ghost-t","input":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rep, code := getTrace(t, ts.URL, resp.Header.Get("X-CA-Trace-Id"))
	if code != 200 || rep.Ruleset != "ghost-t" {
		t.Fatalf("trace of the 404: status %d, report %+v; want the requested name kept", code, rep)
	}
}

func TestMatchDebugInlinesTrace(t *testing.T) {
	_, ts := testServer(t, Config{Registry: telemetry.NewRegistry()})
	compileRules(t, ts, "ids", "needle")
	var mr MatchResponse
	if code := doJSON(t, "POST", ts.URL+"/match?debug=1",
		MatchRequest{Ruleset: "ids", Input: "a needle"}, &mr); code != 200 {
		t.Fatalf("match status %d", code)
	}
	if mr.Trace == nil || mr.Trace.Op != "match" || mr.Trace.Outcome != "ok" {
		t.Fatalf("inlined trace = %+v", mr.Trace)
	}
	// Without ?debug=1 the trace stays out of the body.
	var raw map[string]json.RawMessage
	if code := doJSON(t, "POST", ts.URL+"/match",
		MatchRequest{Ruleset: "ids", Input: "a needle"}, &raw); code != 200 {
		t.Fatal("match failed")
	}
	if _, ok := raw["trace"]; ok {
		t.Fatal("trace inlined without ?debug=1")
	}
}

func TestTracingDisabled(t *testing.T) {
	s, ts := testServer(t, Config{Registry: telemetry.NewRegistry(), TraceRingSize: -1})
	compileRules(t, ts, "ids", "needle")
	if s.Ring() != nil {
		t.Fatal("ring built despite TraceRingSize < 0")
	}
	req, _ := http.NewRequest("POST", ts.URL+"/match",
		strings.NewReader(`{"ruleset":"ids","input":"needle"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-CA-Trace-Id"); got != "" {
		t.Fatalf("trace header %q with tracing disabled", got)
	}
	if code := doJSON(t, "GET", ts.URL+"/debug/requests", nil, nil); code != 404 {
		t.Fatalf("/debug/requests status %d with tracing disabled, want 404", code)
	}
}

// TestErrorTracePinned checks a failed request's trace survives a flood
// of healthy traffic because the ring pins non-ok outcomes.
func TestErrorTracePinned(t *testing.T) {
	_, ts := testServer(t, Config{Registry: telemetry.NewRegistry(), TraceRingSize: 4})
	compileRules(t, ts, "ids", "needle")

	req, _ := http.NewRequest("POST", ts.URL+"/match",
		strings.NewReader(`{"ruleset":"nope","input":"x"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown ruleset status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-CA-Trace-Id")
	if id == "" {
		t.Fatal("failed request carries no trace id")
	}
	for i := 0; i < 20; i++ {
		doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "ids", Input: "needle"}, nil)
	}
	rep, code := getTrace(t, ts.URL, id)
	if code != 200 {
		t.Fatalf("pinned error trace evicted (status %d)", code)
	}
	if rep.Outcome != "error" || rep.Error == "" {
		t.Fatalf("trace outcome = %q error = %q", rep.Outcome, rep.Error)
	}

	// An unknown id is a structured 404.
	if _, code := getTrace(t, ts.URL, "bogus-id"); code != 404 {
		t.Fatalf("bogus id status %d", code)
	}
}

// TestTimeoutTraceOutcome checks a deadline-expired match is classified
// "timeout", not generic "error", and is explainable post-hoc.
func TestTimeoutTraceOutcome(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry(), RequestTimeout: time.Nanosecond})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	rt := s.newTrace("match")
	ctx := telemetry.WithReqTrace(context.Background(), rt)
	_, err := s.Match(ctx, MatchRequest{Ruleset: "ids", Input: strings.Repeat("x", 1<<20)})
	if err == nil {
		t.Fatal("1ns deadline match succeeded")
	}
	outcome, _ := outcomeOf(err)
	s.finishTrace(rt, outcome, err.Error())
	rep := s.Ring().Find(rt.ID())
	if rep == nil {
		t.Fatal("timeout trace not retained")
	}
	if rep.Outcome != "timeout" {
		t.Fatalf("outcome = %q, want timeout", rep.Outcome)
	}
}

// TestSessionTraceStages checks open/feed/suspend record wal spans and
// the ruleset on their traces.
func TestSessionTraceStages(t *testing.T) {
	s, ts := testServer(t, Config{Registry: telemetry.NewRegistry()})
	compileRules(t, ts, "ids", "needle")
	dir := t.TempDir()
	if _, err := s.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/sessions",
		strings.NewReader(`{"ruleset":"ids"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var open SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	openID := resp.Header.Get("X-CA-Trace-Id")

	feedReq, _ := http.NewRequest("POST", ts.URL+"/sessions/"+open.Session+"/feed",
		strings.NewReader(`{"chunk":"a needle"}`))
	feedResp, err := http.DefaultClient.Do(feedReq)
	if err != nil {
		t.Fatal(err)
	}
	feedResp.Body.Close()
	feedID := feedResp.Header.Get("X-CA-Trace-Id")

	for name, id := range map[string]string{"open": openID, "feed": feedID} {
		rep, code := getTrace(t, ts.URL, id)
		if code != 200 {
			t.Fatalf("%s trace not retained", name)
		}
		if rep.Ruleset != "ids" {
			t.Fatalf("%s trace ruleset = %q", name, rep.Ruleset)
		}
		if !strings.Contains(strings.Join(stageNames(rep), ","), "wal") {
			t.Fatalf("%s trace stages = %v, want a wal span (WAL attached)", name, stageNames(rep))
		}
	}
}

// TestTCPTraceID checks the TCP transport carries the trace id in its
// response envelope, for both ok and error lines.
func TestTCPTraceID(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	tcp := &TCPServer{s: s}

	out := tcp.dispatch(context.Background(), []byte(`{"op":"match","ruleset":"ids","input":"a needle"}`))
	ok := out
	if !ok.OK || ok.TraceID == "" {
		t.Fatalf("tcp ok response = %#v, want trace id", out)
	}
	if rep := s.Ring().Find(ok.TraceID); rep == nil || rep.Op != "tcp.match" {
		t.Fatalf("tcp trace %q not retrievable", ok.TraceID)
	}

	out = tcp.dispatch(context.Background(), []byte(`{"op":"match","ruleset":"nope"}`))
	fail := out
	if fail.OK || fail.TraceID == "" {
		t.Fatalf("tcp error response = %#v, want trace id", out)
	}
	if rep := s.Ring().Find(fail.TraceID); rep == nil || rep.Outcome != "error" {
		t.Fatalf("tcp error trace %q not pinned", fail.TraceID)
	}
}

// TestSlowRequestCounter checks the slow threshold feeds
// ca_server_slow_requests_total and pins the trace.
func TestSlowRequestCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := testServer(t, Config{Registry: reg, SlowRequest: time.Nanosecond})
	compileRules(t, ts, "ids", "needle")
	var mr MatchResponse
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "ids", Input: "needle"}, &mr); code != 200 {
		t.Fatalf("match status %d", code)
	}
	if s.col.SlowRequests.Value() == 0 {
		t.Fatal("ca_server_slow_requests_total did not move with a 1ns threshold")
	}
	snap := s.Ring().Snapshot()
	if len(snap.Pinned) == 0 {
		t.Fatal("slow trace not pinned")
	}
}
