package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/telemetry"
)

// opFixture is a server in the one state every row of the table can run
// against: rule set "ids" compiled, session s00000001 open on it. Set-up
// goes through the in-process API, so the request counter is zero and
// the trace ring empty when the row under test arrives.
func opFixture(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Registry = telemetry.NewRegistry()
	s := New(cfg)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	if info, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"}); err != nil || info.Session != "s00000001" {
		t.Fatalf("open fixture session: %+v, %v", info, err)
	}
	return s
}

// opInputs is one well-formed request per row, by op name: the key (the
// path wildcard on HTTP, name/session in the TCP envelope) and the body.
// A row without an entry fails TestOpTableParity, so a new row cannot
// land untested.
func opInputs(t testing.TB, s *Server) map[string]struct{ key, body string } {
	art, err := s.Artifact("ids")
	if err != nil {
		t.Fatal(err)
	}
	artJSON, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct{ key, body string }{
		"rulesets.compile":    {"fresh", `{"patterns":["abc","d+e"]}`},
		"rulesets.reload":     {"ids", ``},
		"rulesets.list":       {},
		"rulesets.artifact":   {"ids", ``},
		"rulesets.install":    {"copy", string(artJSON)},
		"rulesets.get":        {"ids", ``},
		"rulesets.delete":     {"ids", ``},
		"match":               {"", `{"ruleset":"ids","input":"a needle, another needle"}`},
		"sessions.open":       {"", `{"ruleset":"ids"}`},
		"sessions.list":       {},
		"sessions.feed":       {"s00000001", `{"chunk":"xx needle"}`},
		"sessions.suspend":    {"s00000001", ``},
		"sessions.checkpoint": {"s00000001", ``},
		"sessions.close":      {"s00000001", ``},
		"health":              {},
		"ping":                {},
	}
}

// tcpLine frames a row's request for the line protocol: the body's
// fields plus the {op,name,session} envelope.
func tcpLine(t testing.TB, op *Op, key, body string) []byte {
	t.Helper()
	line := map[string]any{}
	if body != "" {
		if err := json.Unmarshal([]byte(body), &line); err != nil {
			t.Fatal(err)
		}
	}
	line["op"] = op.TCP
	if _, wildcard, _ := op.split(); wildcard == "name" {
		line["name"] = key
	} else if wildcard == "id" {
		line["session"] = key
	}
	out, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// volatile is the one result field that is wall-clock time.
var volatile = regexp.MustCompile(`"compile_ms":[0-9.e+-]+`)

func canonicalJSON(t *testing.T, v []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, v); err != nil {
		t.Fatalf("not JSON: %q: %v", v, err)
	}
	return volatile.ReplaceAllString(buf.String(), `"compile_ms":0`)
}

// accounted checks what serve guarantees for every request whatever its
// transport or fate: ca_server_requests_total moved by exactly one and
// exactly one trace landed, under the expected op ("" — none at all),
// with every stage ended before the trace finished.
func accounted(t *testing.T, s *Server, what, traceOp string) {
	t.Helper()
	if got := s.col.Requests.Value(); got != 1 {
		t.Errorf("%s: ca_server_requests_total = %d, want 1", what, got)
	}
	recent := s.Ring().Snapshot().Recent
	noOpenStage(t, what, recent)
	switch {
	case traceOp == "" && len(recent) != 0:
		t.Errorf("%s: %d traces landed, want none", what, len(recent))
	case traceOp != "" && (len(recent) != 1 || recent[0].Op != traceOp):
		t.Errorf("%s: traces %+v, want exactly one with op %q", what, recent, traceOp)
	}
}

// noOpenStage fails for every trace that Finish had to close a stage
// of: on every path a test drives, each stage ends before its trace.
func noOpenStage(t *testing.T, what string, reps []*telemetry.ReqReport) {
	t.Helper()
	for _, rep := range reps {
		for _, n := range rep.Notes {
			if n.Key == "open_stage" {
				t.Errorf("%s: trace %s (%s) finished with stage %s open", what, rep.ID, rep.Op, n.Value)
			}
		}
	}
}

func httpDo(t *testing.T, s *Server, op *Op, key, body, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(op.Method, op.URLPath(key), strings.NewReader(body))
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestOpTableParity ranges over the op table: every row is reachable on
// each transport it names, the same request yields the same result on
// both, and each is counted once and traced once under the right op.
func TestOpTableParity(t *testing.T) {
	const token = "s3cret"
	for i := range Ops {
		op := &Ops[i]
		t.Run(op.Name, func(t *testing.T) {
			var viaHTTP, viaTCP string
			if op.Method != "" {
				s := opFixture(t, Config{AdminToken: token})
				in, ok := opInputs(t, s)[op.Name]
				if !ok {
					t.Fatalf("no test input for row %q", op.Name)
				}
				rec := httpDo(t, s, op, in.key, in.body, token)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s = %d %s", op.Method, op.URLPath(in.key), rec.Code, rec.Body)
				}
				if rec.Header().Get("X-CA-Trace-Id") == "" {
					t.Error("no X-CA-Trace-Id on the response")
				}
				accounted(t, s, "HTTP", op.Name)
				viaHTTP = canonicalJSON(t, rec.Body.Bytes())
			}
			if op.TCP != "" {
				s := opFixture(t, Config{AdminToken: token})
				in, ok := opInputs(t, s)[op.Name]
				if !ok {
					t.Fatalf("no test input for row %q", op.Name)
				}
				resp := (&TCPServer{s: s}).dispatch(context.Background(), tcpLine(t, op, in.key, in.body))
				if !resp.OK || resp.TraceID == "" {
					t.Fatalf("tcp %s = %+v", op.TCP, resp)
				}
				accounted(t, s, "TCP", "tcp."+op.TCP)
				result, err := json.Marshal(resp.Result)
				if err != nil {
					t.Fatal(err)
				}
				viaTCP = canonicalJSON(t, result)
			}
			if viaHTTP != "" && viaTCP != "" && viaHTTP != viaTCP {
				t.Errorf("transports disagree:\nHTTP %s\nTCP  %s", viaHTTP, viaTCP)
			}
			if op.Admin {
				s := opFixture(t, Config{AdminToken: token})
				if rec := httpDo(t, s, op, "ids", "", ""); rec.Code != http.StatusUnauthorized {
					t.Errorf("admin row without its token = %d, want 401", rec.Code)
				}
				accounted(t, s, "unauthorized", op.Name)
				if op.TCP != "" {
					t.Error("admin row is mounted on TCP, which carries no credentials")
				}
			}
		})
	}
}

// TestOpTableFramingFailures: a request that dies in framing — before
// its row could run — is still one request and, when the op is known,
// one trace.
func TestOpTableFramingFailures(t *testing.T) {
	match := Route("match")
	for _, c := range []struct {
		name    string
		do      func(s *Server) (status int, body string)
		status  int
		traceOp string
	}{
		{"http malformed body", func(s *Server) (int, string) {
			rec := httpDo(t, s, match, "", `{not json`, "")
			return rec.Code, rec.Body.String()
		}, http.StatusBadRequest, "match"},
		{"http oversized body", func(s *Server) (int, string) {
			rec := httpDo(t, s, match, "", `{"ruleset":"ids","input":"`+strings.Repeat("x", 4096)+`"}`, "")
			return rec.Code, rec.Body.String()
		}, http.StatusRequestEntityTooLarge, "match"},
		{"tcp malformed line", func(s *Server) (int, string) {
			resp := (&TCPServer{s: s}).dispatch(context.Background(), []byte(`{not json`))
			return resp.Status, resp.Error
		}, http.StatusBadRequest, ""},
		{"tcp oversized line", func(s *Server) (int, string) {
			// The scanner is where an over-long line dies, so this row
			// needs the real listener.
			conn, rd := dialTCP(t, s)
			wrote := make(chan struct{})
			go func() {
				defer close(wrote)
				_, _ = conn.Write([]byte(`{"op":"match","ruleset":"ids","input":"` + strings.Repeat("x", 200000) + "\"}\n"))
			}()
			line, err := rd.ReadBytes('\n')
			conn.Close() // unblocks a write the server stopped reading
			<-wrote
			var resp tcpReply
			if err != nil || json.Unmarshal(line, &resp) != nil {
				t.Fatalf("reply %q: %v", line, err)
			}
			return resp.Status, resp.Error
		}, http.StatusRequestEntityTooLarge, ""},
		{"tcp malformed field", func(s *Server) (int, string) {
			resp := (&TCPServer{s: s}).dispatch(context.Background(), []byte(`{"op":"match","ruleset":7}`))
			return resp.Status, resp.Error
		}, http.StatusBadRequest, "tcp.match"},
		{"tcp unknown op", func(s *Server) (int, string) {
			resp := (&TCPServer{s: s}).dispatch(context.Background(), []byte(`{"op":"reload","name":"ids"}`))
			return resp.Status, resp.Error
		}, http.StatusBadRequest, "tcp.reload"},
		{"tcp missing op", func(s *Server) (int, string) {
			resp := (&TCPServer{s: s}).dispatch(context.Background(), []byte(`{"ruleset":"ids"}`))
			return resp.Status, resp.Error
		}, http.StatusBadRequest, "tcp.unknown"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := opFixture(t, Config{MaxBodyBytes: 1024})
			status, body := c.do(s)
			if status != c.status || body == "" {
				t.Errorf("status %d body %q, want %d with a message", status, body, c.status)
			}
			accounted(t, s, c.name, c.traceOp)
			if got := s.col.RequestErrors.Value(); got != 1 {
				t.Errorf("ca_server_request_errors_total = %d, want 1", got)
			}
		})
	}
}

// TestErrorPathsEndTheirStages: a 404 and a timed-out match, on both
// transports, are one request and one trace each, and every stage they
// opened is ended before the trace finishes.
func TestErrorPathsEndTheirStages(t *testing.T) {
	match, feed := Route("match"), Route("sessions.feed")
	long := `{"ruleset":"ids","input":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, c := range []struct {
		name    string
		timeout time.Duration
		do      func(s *Server) int
		traceOp string
		status  int
	}{
		{"http unknown ruleset", 0, func(s *Server) int {
			return httpDo(t, s, match, "", `{"ruleset":"nope","input":"x"}`, "").Code
		}, "match", http.StatusNotFound},
		{"http unknown session", 0, func(s *Server) int {
			return httpDo(t, s, feed, "s99999999", `{"chunk":"x"}`, "").Code
		}, "sessions.feed", http.StatusNotFound},
		{"tcp unknown ruleset", 0, func(s *Server) int {
			return (&TCPServer{s: s}).dispatch(context.Background(), tcpLine(t, match, "", `{"ruleset":"nope","input":"x"}`)).Status
		}, "tcp.match", http.StatusNotFound},
		{"http timed-out match", time.Nanosecond, func(s *Server) int {
			return httpDo(t, s, match, "", long, "").Code
		}, "match", http.StatusGatewayTimeout},
		{"tcp timed-out match", time.Nanosecond, func(s *Server) int {
			return (&TCPServer{s: s}).dispatch(context.Background(), tcpLine(t, match, "", long)).Status
		}, "tcp.match", http.StatusGatewayTimeout},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := opFixture(t, Config{RequestTimeout: c.timeout})
			if got := c.do(s); got != c.status {
				t.Errorf("status %d, want %d", got, c.status)
			}
			accounted(t, s, c.name, c.traceOp)
		})
	}
}

// midStagePanic is a node whose match panics with its run stage open.
type midStagePanic struct{ *Server }

func (midStagePanic) Match(ctx context.Context, _ MatchRequest) (*MatchResponse, error) {
	telemetry.ReqTraceFrom(ctx).StartStage("run")
	panic("mid-stage")
}

// TestPanicMidStageKeepsItsNote: a handler that panics never reaches
// its End, so this is the one path that finishes with an open stage —
// and the trace names it.
func TestPanicMidStageKeepsItsNote(t *testing.T) {
	s := opFixture(t, Config{})
	h := &Host{API: midStagePanic{s}, Ring: telemetry.NewTraceRing(4, 0)}
	rep := h.serve(context.Background(), Route("match"), "", "", []byte(`{"ruleset":"ids","input":"x"}`), nil)
	if rep.err == nil || rep.report == nil || rep.report.Outcome != "panic" {
		t.Fatalf("reply %+v, want a panic outcome", rep)
	}
	want := []telemetry.StrAttr{{Key: "open_stage", Value: "run"}}
	if !reflect.DeepEqual(rep.report.Notes, want) {
		t.Errorf("notes = %+v, want %+v", rep.report.Notes, want)
	}
	if st := rep.report.Stage("run"); st == nil || st.StartMS+st.DurationMS > rep.report.DurationMS+1e-6 {
		t.Errorf("run stage %+v outlasts its %.3fms trace", st, rep.report.DurationMS)
	}
}

// TestDesignRouteTableMatchesOps keeps DESIGN.md's op table — the copy
// people read — identical to server.Ops, the copy the transports mount.
func TestDesignRouteTableMatchesOps(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for ; ; root = filepath.Dir(root) {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if root == filepath.Dir(root) {
			t.Fatal("no go.mod above test directory")
		}
	}
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	cell := func(s string) string { // "`PUT /x`" → "PUT /x", "—" → ""
		s = strings.Trim(strings.TrimSpace(s), "`")
		if s == "—" {
			return ""
		}
		return s
	}
	doc := map[string][3]string{} // op → HTTP, TCP op, router op
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		cols := strings.Split(line, "|")
		switch {
		case !inTable:
			inTable = len(cols) > 4 && cell(cols[1]) == "op" && cell(cols[2]) == "HTTP"
		case len(cols) < 6:
			inTable = false
		case !strings.HasPrefix(cell(cols[1]), "-"):
			doc[cell(cols[1])] = [3]string{cell(cols[2]), cell(cols[3]), cell(cols[4])}
		}
	}
	if len(doc) == 0 {
		t.Fatal("op table not found in DESIGN.md")
	}
	for _, op := range Ops {
		want := [3]string{strings.TrimSpace(op.Method + " " + op.Path), op.TCP, op.Cluster}
		got, ok := doc[op.Name]
		if !ok {
			t.Errorf("DESIGN.md op table is missing row %q", op.Name)
		} else if got != want {
			t.Errorf("DESIGN.md row %q reads %q, server.Ops declares %q", op.Name, got, want)
		}
		delete(doc, op.Name)
	}
	for name := range doc {
		t.Errorf("DESIGN.md op table lists %q, which server.Ops does not declare", name)
	}
}
