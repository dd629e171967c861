package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cacheautomaton/internal/telemetry"
)

// wireTargets are the types DecodeJSON decodes itself, each as a zero
// value and pre-filled. A pre-filled match list has spare capacity
// holding further elements: encoding/json decodes element i into what
// the backing array holds there, and the fast path must do the same.
var wireTargets = []struct {
	name string
	new  func(filled bool) any
}{
	{"MatchRequest", func(filled bool) any {
		if !filled {
			return new(MatchRequest)
		}
		return &MatchRequest{Ruleset: "old", Input: "old input", InputB64: "b2xk", Shards: 3}
	}},
	{"FeedRequest", func(filled bool) any {
		if !filled {
			return new(FeedRequest)
		}
		return &FeedRequest{Chunk: "old", ChunkB64: "b2xk", Checkpoint: true}
	}},
	{"MatchResponse", func(filled bool) any {
		if !filled {
			return new(MatchResponse)
		}
		return &MatchResponse{Matches: filledMatches(), Stats: MatchStats{Cycles: 9, Matches: 8, AvgActiveStates: 1.5, EnergyPJPerSymbol: 2.25, ModeledSeconds: 1e-9},
			Trace: &telemetry.ReqReport{ID: "old", Op: "match"}}
	}},
	{"FeedResponse", func(filled bool) any {
		if !filled {
			return new(FeedResponse)
		}
		return &FeedResponse{Matches: filledMatches(), Pos: 77, Truncated: true, SnapshotB64: "b2xk"}
	}},
}

func filledMatches() []WireMatch {
	ms := []WireMatch{{Offset: 1, Pattern: 2}, {Offset: 3, Pattern: 4}, {Offset: 5, Pattern: 6}, {Offset: 7, Pattern: 8}}
	return ms[:2]
}

// wireSeeds are the bodies the server, cluster and bench tests send, a
// TCP envelope line, the replies they get back, and inputs at the
// subset's edges.
var wireSeeds = []string{
	`{"ruleset":"ids","input":"a needle, another needle"}`,
	`{"ruleset":"re","input_b64":"!!!"}`,
	`{"ruleset":"re","input":"a","input_b64":"YQ=="}`,
	`{"ruleset":"re","shards":-3,"input":"x"}`,
	`{"ruleset":"small","input":"abcdefghij xyz needle3 hay..stack","shards":2}`,
	`{"ruleset":{"a":1}}`,
	`{not json`,
	`[]`,
	`{"chunk":"xx needle"}`,
	`{"chunk":"a needle","checkpoint":true}`,
	`{"chunk_b64":"eHggbmVlZGxl"}`,
	`{"op":"match","ruleset":"ids","input":"a needle"}`,
	`{"op":"feed","session":"s00000001","chunk":"xx needle"}`,
	`{"op":"match","ruleset":7}`,
	`{"matches":[{"offset":7,"pattern":0},{"offset":23,"pattern":0}],"stats":{"cycles":24,"matches":2,"avg_active_states":1.25,"energy_pj_per_symbol":3.5e-7,"modeled_seconds":1.2e-8}}`,
	`{"matches":[],"pos":9,"truncated":true,"snapshot_b64":"AAEC"}`,
	`{"matches":null,"pos":1}`,
	`{"matches":[{"offset":1}],"trace":{"id":"x"}}`,
	` {"RuleSet":"x", "INPUT":"y"} `,
	`{"ruleſet":"kelvin and long s fold to ASCII","input":"x"}`,
	`{"ruleset":"a\u00e9","input":"\ud800"}`,
	`{"ruleset":"a","ruleset":"b","shards":1,"shards":2}`,
	`{"matches":[{"offset":1,"pattern":2}],"matches":[{"offset":3}]}`,
	`{"shards":1.0}`, `{"shards":1e2}`, `{"shards":-0}`, `{"shards":01}`, `{"shards":9223372036854775808}`,
	`{"stats":{"avg_active_states":1e400}}`, `{"stats":{"modeled_seconds":-0.0e-0}}`,
	`{"checkpoint":true,"unknown":null,"other":false,"more":-1.5e3,"str":"s"}`,
	`{"unknown":{"nested":1}}`,
	`{"ruleset":"x"} trailing`,
	`{"ruleset":"x",}`,
	`null`,
	"{\"ruleset\":\"\xff\"}",
	"{\"ruleset\":\"tab\there\"}",
	`{"ruleset":"a\"b\\c\/d","input":"\u003ca href=\"x\"\u003e \u0026 \n\r\t\b\f \u2028\u2029 \u0000\u001f \ufffd \u00E9"}`,
	`{"chunk":"\ud83d\ude00 \ud800x \udc00 \ud800\ud800\udc00 \ud83d\u0041 \udbff\udfff"}`,
	`{"chunk":"bad \q escape"}`, `{"chunk":"short \u12"}`, `{"chunk":"pair \ud800\u12"}`, `{"chunk":"end \`,
	`{"ru\u006ceset":"escaped key","\u0063hunk":"x"}`,
	"{\"chunk\":\"\\n then raw \xff\"}",
	`{"matches":null,"stats":{"cycles":1}}`,
}

// FuzzWireCodec holds the wire codec to encoding/json. Decoding: any
// bytes, into each type DecodeJSON decodes itself, zero and pre-filled,
// must give json.Unmarshal's error (nil or its text) and value.
// Encoding: values built from the input — strings with invalid UTF-8,
// <>&, U+2028 and control bytes; floats at 0, 1e-7, 1e21, negatives and
// the input's own bits — must encode to json.Marshal's bytes.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tt := range wireTargets {
			for _, filled := range []bool{false, true} {
				got, want := tt.new(filled), tt.new(filled)
				gerr, werr := DecodeJSON(data, got), json.Unmarshal(data, want)
				if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s (filled %v) %q: DecodeJSON error %v, json.Unmarshal %v", tt.name, filled, data, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (filled %v) %q: DecodeJSON %+v, json.Unmarshal %+v", tt.name, filled, data, got, want)
				}
				if gerr == nil {
					checkEncodes(t, got)
				}
			}
		}
		for _, v := range wireValues(data) {
			checkEncodes(t, v)
		}
	})
}

// escapes is every case of json.Marshal's string escaping: HTML
// characters, the JS line separators, control bytes with and without a
// short form, the quote, the backslash, DEL and invalid UTF-8.
const escapes = "<a href=\"x\">&amp;</a> \u2028\u2029 \x00\x01\x1f\b\f\n\r\t \\ \x7f \xff\xc3( é"

// wireValues builds one value of each encoded type out of fuzz input.
func wireValues(data []byte) []any {
	s := string(data) + escapes
	half := s[:len(s)/2]
	floats := []float64{0, 1e-7, 1e21, -2.5, 1e-6, 1e20, 123456789.125, -1e-300}
	if len(data) >= 8 {
		floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	var ms []WireMatch
	for i, b := range data[:min(len(data), 64)] {
		ms = append(ms, WireMatch{Offset: int64(i) - int64(b)<<40, Pattern: int(b) - 128})
	}
	out := []any{
		&MatchRequest{Ruleset: half, Input: s, InputB64: base64.StdEncoding.EncodeToString(data), Shards: len(data) - 4},
		&MatchRequest{Ruleset: s},
		&FeedRequest{},
		&FeedRequest{Chunk: s, Checkpoint: len(data)%2 == 0},
		&FeedRequest{ChunkB64: half, Checkpoint: true},
		&FeedResponse{Matches: ms, Pos: -int64(len(data)), Truncated: len(data)%3 == 0, SnapshotB64: half},
		&FeedResponse{},
		&MatchResponse{Matches: []WireMatch{}},
	}
	for i, f := range floats {
		out = append(out, &MatchResponse{Matches: ms[:min(i, len(ms))], Stats: MatchStats{
			Cycles: int64(i) << 50, Matches: -int64(i), AvgActiveStates: f, EnergyPJPerSymbol: -f, ModeledSeconds: f * 1e-3,
		}})
	}
	return out
}

// checkEncodes compares the codec's bytes with encoding/json's, behind a
// prefix the append must keep.
func checkEncodes(t *testing.T, v any) {
	t.Helper()
	prefix := []byte("prefix:")
	got, gerr := AppendJSON(prefix, v)
	want, werr := json.Marshal(v)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%T %+v: codec error %v, encoding/json %v", v, v, gerr, werr)
	}
	if werr != nil {
		want = nil
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%T %+v:\ncodec         %q\nencoding/json %q", v, v, got, want)
	}
	if werr == nil {
		checkReadsBack(t, v, want)
	}
}

// checkReadsBack holds DecodeJSON to reading the codec's own output in
// one pass: json.Marshal's bytes for a type it decodes, escapes and all,
// are in the canonical subset and decode to json.Unmarshal's value.
func checkReadsBack(t *testing.T, v any, data []byte) {
	t.Helper()
	switch v := v.(type) {
	case *MatchResponse:
		if v.Trace != nil {
			return
		}
	case *MatchRequest, *FeedRequest, *FeedResponse:
	default:
		return
	}
	got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	want := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if !decodeCanonical(data, got) {
		t.Fatalf("%T: its own encoding %q left the one-pass decoder", v, data)
	}
	if err := json.Unmarshal(data, want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %q: one pass %+v, json.Unmarshal %+v (%v)", v, data, got, want, err)
	}
}

// TestDecodeOnePassSubset pins the one pass to what AppendJSON writes:
// a key that is not exactly a field's json name (another case, or a
// field the type lacks), a \u escape naming a surrogate, paired or
// alone, and a TCP line with its envelope all leave it, and DecodeJSON
// then gives json.Unmarshal's value and error.
func TestDecodeOnePassSubset(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
		new  func() any
	}{
		{"folded key", `{"Ruleset":"x"}`, func() any { return new(MatchRequest) }},
		{"extra key", `{"op":"match","ruleset":"x","input":"y"}`, func() any { return new(MatchRequest) }},
		{"surrogate pair", `{"chunk":"\ud83d\ude00"}`, func() any { return new(FeedRequest) }},
		{"lone surrogate", `{"chunk":"\udc00"}`, func() any { return new(FeedRequest) }},
		{"TCP match line", string(tcpLine(t, Route("match"), "", `{"ruleset":"ids","input":"a needle"}`)), func() any { return new(MatchRequest) }},
		{"TCP feed line", string(tcpLine(t, Route("sessions.feed"), "s00000001", `{"chunk":"xx needle"}`)), func() any { return new(FeedRequest) }},
	} {
		if decodeCanonical([]byte(tc.data), tc.new()) {
			t.Errorf("%s: %s stayed on the one pass", tc.name, tc.data)
		}
		got, want := tc.new(), tc.new()
		gerr, werr := DecodeJSON([]byte(tc.data), got), json.Unmarshal([]byte(tc.data), want)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeJSON %+v (%v), json.Unmarshal %+v (%v)", tc.name, got, gerr, want, werr)
		}
	}
}

// TestReadBodyPresizeIsCapped: a declared Content-Length presizes the
// body buffer only up to the size cap and the pool's limit, so a client
// that declares a large body and sends a small one holds no more.
func TestReadBodyPresizeIsCapped(t *testing.T) {
	for _, tc := range []struct {
		maxBody int64
		maxCap  int
	}{
		{1024, 4 << 10},
		{8 << 20, maxPooledBuffer},
	} {
		body := `{"ruleset":"x","input":"small"}`
		req := httptest.NewRequest(http.MethodPost, "/match", strings.NewReader(body))
		req.ContentLength = 1 << 20
		var buf bytes.Buffer
		if err := readBody(httptest.NewRecorder(), req, tc.maxBody, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != body {
			t.Fatalf("MaxBody %d: read %q, want %q", tc.maxBody, buf.String(), body)
		}
		if buf.Cap() > tc.maxCap {
			t.Errorf("MaxBody %d, Content-Length %d, %d bytes sent: buffer holds %d bytes, want at most %d",
				tc.maxBody, req.ContentLength, len(body), buf.Cap(), tc.maxCap)
		}
	}
	// The router's node client passes a reply's Content-Length unclamped.
	var buf bytes.Buffer
	if err := ReadBody(&buf, strings.NewReader("{}"), math.MaxInt64); err != nil || buf.String() != "{}" || buf.Cap() > maxPooledBuffer {
		t.Errorf("ReadBody with a MaxInt64 hint: %q, %d bytes held, err %v", buf.String(), buf.Cap(), err)
	}
}

// TestWireRepliesByteIdentical: over HTTP and over TCP, the replies to
// match, sessions.feed and sessions.suspend are json.Marshal of the
// value the in-process call returns on a twin server, plus "\n" — the
// bytes json.Encoder wrote before the codec.
func TestWireRepliesByteIdentical(t *testing.T) {
	invalid := base64.StdEncoding.EncodeToString([]byte("needle \xff\xfe needle"))
	steps := []struct {
		op   string
		key  string
		body any
	}{
		{"match", "", &MatchRequest{Ruleset: "ids", Input: "a needle <&> \u2028 \x01 needle"}},
		{"match", "", &MatchRequest{Ruleset: "ids", InputB64: invalid, Shards: 2}},
		{"match", "", &MatchRequest{Ruleset: "ids", Input: "nothing here"}},
		{"sessions.feed", "s00000001", &FeedRequest{Chunk: "xx nee"}},
		{"sessions.feed", "s00000001", &FeedRequest{Chunk: "dle yy needle", Checkpoint: true}},
		{"sessions.suspend", "s00000001", nil},
	}
	inProcess := func(s *Server, op, key string, body any) any {
		var (
			out any
			err error
		)
		switch op {
		case "match":
			out, err = s.Match(context.Background(), *body.(*MatchRequest))
		case "sessions.feed":
			out, err = s.Feed(context.Background(), key, *body.(*FeedRequest))
		case "sessions.suspend":
			out, err = s.Suspend(context.Background(), key)
		}
		if err != nil {
			t.Fatalf("in-process %s: %v", op, err)
		}
		return out
	}
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}

	t.Run("http", func(t *testing.T) {
		s, twin := opFixture(t, Config{}), opFixture(t, Config{})
		front := httptest.NewServer(s.Handler())
		defer front.Close()
		for _, st := range steps {
			op := Route(st.op)
			var body []byte
			if st.body != nil {
				body = marshal(st.body)
			}
			resp, err := http.Post(front.URL+op.URLPath(st.key), "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			_, err = got.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %q %v", st.op, resp.StatusCode, got.Bytes(), err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", st.op, ct)
			}
			if want := marshal(inProcess(twin, st.op, st.key, st.body)); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s over HTTP:\ngot  %q\nwant %q", st.op, got.Bytes(), want)
			}
		}
	})

	t.Run("tcp", func(t *testing.T) {
		s, twin := opFixture(t, Config{}), opFixture(t, Config{})
		conn, rd := dialTCP(t, s)
		for _, st := range steps {
			op := Route(st.op)
			var body []byte
			if st.body != nil {
				body = marshal(st.body)
			}
			if _, err := conn.Write(append(tcpLine(t, op, st.key, string(body)), '\n')); err != nil {
				t.Fatal(err)
			}
			got, err := rd.ReadBytes('\n')
			if err != nil {
				t.Fatal(err)
			}
			var id struct {
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal(got, &id); err != nil || id.TraceID == "" {
				t.Fatalf("%s: reply %q without a trace id (%v)", st.op, got, err)
			}
			want := marshal(tcpReply{OK: true, Result: inProcess(twin, st.op, st.key, st.body), TraceID: id.TraceID})
			if !bytes.Equal(got, want) {
				t.Errorf("%s over TCP:\ngot  %q\nwant %q", st.op, got, want)
			}
		}
	})
}

// dialTCP serves s's line protocol on loopback and connects to it.
func dialTCP(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := s.ServeTCP(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		_ = ts.Shutdown(context.Background())
	})
	return conn, bufio.NewReader(conn)
}

// TestWireConcurrentMatchesOwnTheirBuffers: 8 goroutines × 200 distinct
// /match bodies through one handler. Every reply must be its own body's
// Server.Match result — a pooled buffer shared between two requests, or
// a decoded string aliasing one, shows up here (and under -race).
func TestWireConcurrentMatchesOwnTheirBuffers(t *testing.T) {
	s := opFixture(t, Config{})
	h := s.Handler()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := MatchRequest{Ruleset: "ids", Input: fmt.Sprintf("%d/%d %s needle%s", w, i, strings.Repeat("needle ", i%7), strings.Repeat("x", i))}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)))
				resp, err := s.Match(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := json.Marshal(resp)
				if err != nil {
					t.Error(err)
					return
				}
				if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("worker %d request %d:\ngot  %q\nwant %q", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkServeMatchHTTP runs the node's handler in process on a 1 KiB
// serve-small-shaped /match body (three rules, planted needles). About
// 4.5 KB/op of what it reports is httptest building the request. The
// plain body's text needs no escape, like every body the bench ledger
// sends; the escaped one is HTML-ish text with quotes, a backslash,
// newlines and tabs, whose 1 746-byte encoding is 55 % escape sequences
// (json.Marshal writes <, > and & as \u003c, \u003e and \u0026).
//
// On a 2-vCPU Intel Xeon with go1.24.0, five alternating -benchtime=2s
// runs before the wire codec (encoding/json, io.ReadAll, json.Encoder)
// and with it: plain 27.8–35.5 → 20.5–23.3 µs, 76 → 71 allocs, 17.6 →
// 14.6 KB/op; escaped 37.0–43.8 → 26.1–29.6 µs, 78 → 72 allocs, 21.4 →
// 16.4 KB/op.
func BenchmarkServeMatchHTTP(b *testing.B) {
	s := New(Config{Registry: telemetry.NewRegistry()})
	b.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Compile(context.Background(), "small", CompileRequest{Patterns: []string{"needle[0-9]", "hay.{2}stack", "x[abc]+y"}}); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct{ name, filler string }{
		{"plain", "abcdefghij xyz 0123456789 qrstuvw "},
		{"escaped", "<p class=\"a\">x &amp; y</p>\n\t\\ \"q\" "},
	} {
		rng := rand.New(rand.NewSource(1))
		var in strings.Builder
		for in.Len() < 1<<10 {
			switch rng.Intn(8) {
			case 0:
				fmt.Fprintf(&in, "needle%d", rng.Intn(10))
			case 1:
				in.WriteString("hay..stack")
			default:
				in.WriteString(tc.filler[rng.Intn(26):][:8])
			}
		}
		body, err := json.Marshal(MatchRequest{Ruleset: "small", Input: in.String()[:1<<10]})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
