package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ca_test_total", "a test counter").Add(11)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "ca_test_total 11") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body = get(t, base+"/metrics.json")
	var obj map[string]any
	if code != http.StatusOK || json.Unmarshal([]byte(body), &obj) != nil {
		t.Errorf("/metrics.json = %d %q", code, body)
	}
	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Errorf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Errorf("/debug/vars not JSON: %v", err)
	} else if _, ok := vars["cacheautomaton"]; !ok {
		t.Errorf("/debug/vars missing cacheautomaton registry: %v", body)
	}
	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	// A second Serve against the same registry must not panic on the
	// already-published expvar.
	srv2, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Close()
}

func TestMachineCollector(t *testing.T) {
	reg := NewRegistry()
	c := NewMachineCollector(reg)
	// Two cycles: 10 then 20 enabled states, 2 then 3 active partitions.
	c.ObserveRun(RunSummary{Symbols: 2, Seconds: 0.5, Matches: 5,
		OutputBufferInterrupts: 1, OutputBufferPeak: 40,
		SumActiveStates: 30, SumActivePartitions: 5, SumG1Crossings: 1, SumG4Crossings: 3})
	c.ObserveRun(RunSummary{}) // an empty run: counted, no histogram sample
	if got := c.Runs.Value(); got != 2 {
		t.Errorf("runs = %d", got)
	}
	if got := c.ActiveStates.Count(); got != 1 {
		t.Errorf("active-state observations = %d, want 1 (one per non-empty run)", got)
	}
	if got := c.ActivePartitions.Sum(); got != 2.5 {
		t.Errorf("active-partition sum = %v, want 2.5 (one run's mean)", got)
	}
	if c.Matches.Value() != 5 || c.OutputBufferInterrupts.Value() != 1 {
		t.Errorf("matches = %d interrupts = %d", c.Matches.Value(), c.OutputBufferInterrupts.Value())
	}
	if got := c.Symbols.Value(); got != 2 {
		t.Errorf("symbols = %d", got)
	}
	if got := c.SymbolsPerSecond.Value(); got != 4 {
		t.Errorf("symbols/sec = %v, want 4", got)
	}
	if got := c.ActiveStates.Sum(); got != 15 {
		t.Errorf("active-state sum = %v, want 15 (one run's mean)", got)
	}
	if got := c.G4Crossings.Value(); got != 3 {
		t.Errorf("g4 = %d", got)
	}
	if got := c.OutputBufferHighWater.Value(); got != 40 {
		t.Errorf("highwater = %d", got)
	}
	// Second collector on the same registry shares instruments.
	c2 := NewMachineCollector(reg)
	if c2.Symbols != c.Symbols {
		t.Error("collectors on one registry should share counters")
	}
}

// TestTraceRingServeHTTP drives the flight recorder's handler through
// every answer it can give: snapshot and single trace, JSON and text,
// unknown id and a nil (tracing disabled) ring as structured 404s.
func TestTraceRingServeHTTP(t *testing.T) {
	ring := NewTraceRing(4, 0)
	ring.Add(rep(1, "error", 2))
	ring.Add(rep(2, "ok", 1))
	id := rep(1, "error", 2).ID
	for _, c := range []struct {
		ring  *TraceRing
		query string
		code  int
		ctype string
		want  string
	}{
		{ring, "", 200, "application/json", `"pinned":[{"id":"` + id},
		{ring, "?id=" + id, 200, "application/json", `"outcome":"error"`},
		{ring, "?format=text", 200, "text/plain; charset=utf-8", "flight recorder: 2 recent, 1 pinned"},
		{ring, "?format=text&id=" + id, 200, "text/plain; charset=utf-8", id},
		{ring, "?id=bogus", 404, "application/json", `{"error":"no trace \"bogus\" (evicted or never recorded)"}`},
		{ring, "?format=text&id=bogus", 404, "application/json", `"error"`},
		{nil, "", 404, "application/json", `{"error":"request tracing is disabled"}`},
	} {
		rec := httptest.NewRecorder()
		c.ring.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests"+c.query, nil))
		if rec.Code != c.code || rec.Header().Get("Content-Type") != c.ctype || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("GET /debug/requests%s = %d %q %q, want %d %q containing %q",
				c.query, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), c.code, c.ctype, c.want)
		}
	}
}
