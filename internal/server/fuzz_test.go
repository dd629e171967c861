package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cacheautomaton/internal/telemetry"
)

var fuzzSrv struct {
	once sync.Once
	h    http.Handler
	s    *Server
	err  error
}

func fuzzHandler(t *testing.T) (http.Handler, *Server) {
	f := &fuzzSrv
	f.once.Do(func() {
		f.s = New(Config{MaxBodyBytes: 1 << 16, Registry: telemetry.NewRegistry()})
		if _, err := f.s.Compile(context.Background(), "re", CompileRequest{Patterns: []string{"cat", "a{2,3}b"}}); err != nil {
			f.err = err
			return
		}
		f.h = f.s.Handler()
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.h, f.s
}

// FuzzServerMatchRequest: arbitrary bytes POSTed at the serving API —
// malformed JSON, wrong types, oversized bodies, torn base64 — must
// always produce a structured JSON response with a sane status, and
// never a panic. The same bytes are also thrown at the TCP line
// dispatcher, which shares the decode path but frames differently.
func FuzzServerMatchRequest(f *testing.F) {
	f.Add([]byte(`{"ruleset":"re","input":"a cat"}`))
	f.Add([]byte(`{"ruleset":"re","input_b64":"!!!"}`))
	f.Add([]byte(`{"ruleset":"nope","input":"x"}`))
	f.Add([]byte(`{"ruleset":"re","input":"a","input_b64":"YQ=="}`))
	f.Add([]byte(`{"ruleset":"re","shards":-3,"input":"x"}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"ruleset":{"a":1}}`))
	f.Add(bytes.Repeat([]byte("x"), 1<<17))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, s := fuzzHandler(t)

		req := httptest.NewRequest("POST", "/match", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the fuzz run
		resp := rec.Result()
		if resp.StatusCode != 200 {
			switch resp.StatusCode {
			case 400, 404, 413, 422, 503:
			default:
				t.Fatalf("status %d for body %q", resp.StatusCode, body)
			}
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.Bytes(), body)
		}
		if resp.StatusCode != 200 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error response without error field: %q", rec.Body.Bytes())
			}
		}

		// The TCP dispatcher must be equally unkillable, one line a time.
		tcp := &TCPServer{s: s}
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			out := tcp.dispatch(context.Background(), line)
			if _, err := json.Marshal(out); err != nil {
				t.Fatalf("unmarshalable TCP response %#v for line %q", out, line)
			}
		}
	})
}

// FuzzTCPLine: arbitrary bytes, as one line, at the TCP line framer. The
// server holds one rule set and one open session under a small body and
// session cap, so a fuzzed compile or open stays cheap, and it is fresh
// for each input, so a failure replays from its input alone. The reply
// must encode, and be either ok with no error or an error with a status
// of 400 or more; a panic fails the run.
func FuzzTCPLine(f *testing.F) {
	seed := opFixture(f, Config{})
	inputs := opInputs(f, seed)
	for i := range Ops {
		if op := &Ops[i]; op.TCP != "" {
			in := inputs[op.Name]
			f.Add(tcpLine(f, op, in.key, in.body))
		}
	}
	for _, line := range []string{
		`{"op":"match","ruleset":7}`,
		`{"op":"match","ruleset":"ids","input_b64":"!!!"}`,
		`{"op":"feed","session":"s99999999","chunk":"x"}`,
		`{"op":"compile","name":"bad","patterns":["("]}`,
		`{"op":"nope"}`,
		`{"Op":"PING"}`,
		`{}`,
		`[]`,
		`{not json`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		s := opFixture(t, Config{MaxBodyBytes: 1 << 12, MaxSessions: 4})
		rep := (&TCPServer{s: s}).dispatch(context.Background(), line)
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("line %q: reply %+v does not encode: %v", line, rep, err)
		}
		if rep.OK != (rep.Error == "") || !rep.OK && rep.Status < 400 {
			t.Fatalf("line %q: reply ok=%v error=%q status=%d", line, rep.OK, rep.Error, rep.Status)
		}
	})
}
