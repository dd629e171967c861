package server

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// collectorOf digs the server's collector out for metric assertions.
func collectorOf(s *Server) *telemetry.ServerCollector { return s.col }

// TestMatchRequestTimeout checks Config.RequestTimeout stops a long
// match at chunk granularity with 504 and counts it.
func TestMatchRequestTimeout(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _ := testServer(t, Config{Registry: reg, RequestTimeout: time.Nanosecond})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	// Input long enough to span many cancellation chunks.
	input := strings.Repeat("x", 1<<20)
	start := time.Now()
	_, err := s.Match(context.Background(), MatchRequest{Ruleset: "ids", Input: input})
	if err == nil || statusOf(err) != http.StatusGatewayTimeout {
		t.Fatalf("err = %v (status %d), want 504", err, statusOf(err))
	}
	// A 1ns deadline must stop within ~one chunk, not scan the megabyte.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timed-out match took %v", el)
	}
	if got := collectorOf(s).Timeouts.Value(); got != 1 {
		t.Fatalf("ca_server_timeouts_total = %d, want 1", got)
	}
	// Leases must have been returned despite the cancellation.
	assertLeasesBalanced(t, s)
}

// TestMatchClientDisconnectCancels checks a canceled request context —
// the client hung up — stops a long match mid-input.
func TestMatchClientDisconnectCancels(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Match(ctx, MatchRequest{Ruleset: "ids", Input: strings.Repeat("x", 1<<20)})
	if err == nil {
		t.Fatal("canceled match succeeded")
	}
	assertLeasesBalanced(t, s)
}

// assertLeasesBalanced checks Gets == Puts on every loaded ruleset's
// machine pools — no operation may strand a leased machine.
func assertLeasesBalanced(t *testing.T, s *Server) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, rs := range s.rulesets {
		st := rs.a.LeaseStats()
		open := int64(0)
		// Open sessions legitimately hold one lease each.
		for _, sess := range s.sessions {
			if sess.ruleset == name {
				open++
			}
		}
		if st.Gets != st.Puts+open {
			t.Fatalf("ruleset %s: lease Gets %d != Puts %d + open sessions %d", name, st.Gets, st.Puts, open)
		}
	}
}

// TestFeedCancellationContract checks both halves of the feed contract:
// nothing consumed → 504 retryable; partially consumed → 200 with
// Truncated and an advanced Pos, session still usable.
func TestFeedCancellationContract(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled ctx: nothing consumed, 504, retry succeeds.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.Feed(ctx, info.Session, FeedRequest{Chunk: strings.Repeat("x", 1<<20)})
	if err == nil || statusOf(err) != http.StatusGatewayTimeout {
		t.Fatalf("pre-canceled feed: err = %v (status %d), want 504", err, statusOf(err))
	}
	if got := collectorOf(s).Timeouts.Value(); got != 1 {
		t.Fatalf("ca_server_timeouts_total = %d, want 1", got)
	}
	sessions := s.Sessions()
	if len(sessions) != 1 || sessions[0].Pos != 0 {
		t.Fatalf("after retryable cancel: sessions = %+v, want pos 0", sessions)
	}
	fr, err := s.Feed(context.Background(), info.Session, FeedRequest{Chunk: "xx needle"})
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if len(fr.Matches) != 1 || fr.Truncated {
		t.Fatalf("retry response = %+v, want one match, not truncated", fr)
	}
}

// countCtx is a context whose Err fires deterministically after a fixed
// number of polls — it makes mid-chunk cancellation reproducible
// regardless of machine speed. Done is non-nil so the chunked scan path
// engages; the channel never closes (only Err polls matter here).
type countCtx struct {
	context.Context
	polls   int64
	after   int64
	never   chan struct{}
	pollsMu sync.Mutex
}

func newCountCtx(after int64) *countCtx {
	return &countCtx{Context: context.Background(), after: after, never: make(chan struct{})}
}

func (c *countCtx) Done() <-chan struct{} { return c.never }

func (c *countCtx) Err() error {
	c.pollsMu.Lock()
	defer c.pollsMu.Unlock()
	c.polls++
	if c.polls > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// TestFeedPartialConsumptionTruncates cancels deterministically after
// two sub-batches: the response must deliver the matches found so far
// with Truncated set and Pos at the cut, and re-sending the unconsumed
// suffix must find the rest with no loss or duplication.
func TestFeedPartialConsumptionTruncates(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry(), MaxBodyBytes: 64 << 20})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	// A match early (inside the first sub-batch) and one at the very end,
	// far past the cancellation point.
	chunk := "needle " + strings.Repeat("x", 1<<20) + " needle"
	fr, err := s.Feed(newCountCtx(2), info.Session, FeedRequest{Chunk: chunk})
	if err != nil {
		t.Fatalf("partially-consumed feed must succeed, got %v", err)
	}
	if !fr.Truncated {
		t.Fatal("response not marked Truncated")
	}
	if want := int64(2 * (64 << 10)); fr.Pos != want {
		t.Fatalf("truncated pos = %d, want exactly two sub-batches (%d)", fr.Pos, want)
	}
	if len(fr.Matches) != 1 {
		t.Fatalf("truncated feed delivered %d matches, want the early 1", len(fr.Matches))
	}
	// Resume: re-send the unconsumed suffix.
	fr2, err := s.Feed(context.Background(), info.Session, FeedRequest{Chunk: chunk[fr.Pos:]})
	if err != nil {
		t.Fatalf("resume feed: %v", err)
	}
	if len(fr2.Matches) != 1 {
		t.Fatalf("resumed feed found %d matches, want the trailing 1 (no loss, no duplication)", len(fr2.Matches))
	}
	if got := int64(len(fr.Matches) + len(fr2.Matches)); got != 2 {
		t.Fatalf("total matches = %d, want 2", got)
	}
}

// TestPanicIsolationHTTP injects a panic at the match seam and checks
// the HTTP transport turns it into a structured 500, counts it, and
// keeps serving.
func TestPanicIsolationHTTP(t *testing.T) {
	s, ts := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewInjector(3, map[string]faults.Rule{
		"server.match": {Rate: 1, Kinds: faults.KindPanic},
	}))
	var body map[string]any
	code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "ids", Input: "xx needle"}, &body)
	faults.Disable()
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking match returned %d, want 500", code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "injected panic") {
		t.Fatalf("error body = %v, want injected panic message", body)
	}
	if got := collectorOf(s).Panics.Value(); got != 1 {
		t.Fatalf("ca_server_panics_total = %d, want 1", got)
	}
	// The server must keep serving, state intact.
	var mr MatchResponse
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "ids", Input: "xx needle"}, &mr); code != http.StatusOK {
		t.Fatalf("match after panic returned %d", code)
	}
	if len(mr.Matches) != 1 {
		t.Fatalf("match after panic found %d matches, want 1", len(mr.Matches))
	}
	assertLeasesBalanced(t, s)
}

// TestPanicIsolationTCP does the same over the line-framed transport.
func TestPanicIsolationTCP(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	tsrv := &TCPServer{s: s}
	faults.Enable(faults.NewInjector(3, map[string]faults.Rule{
		"server.match": {Rate: 1, Kinds: faults.KindPanic},
	}))
	resp := tsrv.dispatch(context.Background(), []byte(`{"op":"match","ruleset":"ids","input":"xx needle"}`))
	faults.Disable()
	if resp.OK || resp.Status != http.StatusInternalServerError || !strings.Contains(resp.Error, "injected panic") {
		t.Fatalf("dispatch under panic = %+v, want structured 500", resp)
	}
	if got := collectorOf(s).Panics.Value(); got != 1 {
		t.Fatalf("ca_server_panics_total = %d, want 1", got)
	}
	resp = tsrv.dispatch(context.Background(), []byte(`{"op":"match","ruleset":"ids","input":"xx needle"}`))
	if !resp.OK {
		t.Fatalf("dispatch after panic = %+v, want success", resp)
	}
}

// TestInjectedLeaseExhaustion checks an injected pool-Get refusal
// surfaces as a structured error and leaves Gets == Puts.
func TestInjectedLeaseExhaustion(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewInjector(5, map[string]faults.Rule{
		"machine.pool.get": {Rate: 1},
	}))
	_, err := s.Match(context.Background(), MatchRequest{Ruleset: "ids", Input: "xx needle"})
	faults.Disable()
	if err == nil || statusOf(err) != http.StatusInternalServerError {
		t.Fatalf("lease-refused match: err = %v, want 500", err)
	}
	assertLeasesBalanced(t, s)
	// And recovery is immediate once the fault clears.
	if _, err := s.Match(context.Background(), MatchRequest{Ruleset: "ids", Input: "xx needle"}); err != nil {
		t.Fatalf("match after lease fault: %v", err)
	}
}

// TestReadyzDrainWindow checks the readiness window: ready before
// drain, 503 from SetReady(false) while /healthz (liveness) and
// in-flight serving still work, and not-ready through Shutdown.
func TestReadyzDrainWindow(t *testing.T) {
	s, ts := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before drain = %d, want 200", code)
	}

	// The drain window: readiness flips first, listeners still up,
	// requests still served.
	s.SetReady(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz in drain window = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz in drain window = %d, want 200 (still live)", code)
	}
	var mr MatchResponse
	if code := doJSON(t, "POST", ts.URL+"/match", MatchRequest{Ruleset: "ids", Input: "xx needle"}, &mr); code != http.StatusOK {
		t.Fatalf("match in drain window returned %d, want 200 (in-flight work must complete)", code)
	}

	// SetReady(true) restores readiness (aborted drain).
	s.SetReady(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after SetReady(true) = %d, want 200", code)
	}

	// Shutdown flips it for good, even after SetReady(true).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true) // draining wins over the flag
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Shutdown = %d, want 503", code)
	}
}

// TestInjectedFeedFaultKeepsSessionConsistent hammers one session with
// injected feed faults from many goroutines and checks the surviving
// feeds' positions advance monotonically with no lost state.
func TestInjectedFeedFaultKeepsSessionConsistent(t *testing.T) {
	s, _ := testServer(t, Config{Registry: telemetry.NewRegistry()})
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewInjector(11, map[string]faults.Rule{
		"server.feed": {Rate: 0.3},
	}))
	defer faults.Disable()
	var wg sync.WaitGroup
	var mu sync.Mutex
	fed := int64(0)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fr, err := s.Feed(context.Background(), info.Session, FeedRequest{Chunk: "0123456789"})
				if err != nil {
					if !faults.IsInjected(err) {
						t.Errorf("organic feed error: %v", err)
						return
					}
					continue // injected fault fired before consumption: retryable
				}
				mu.Lock()
				fed += 10
				mu.Unlock()
				_ = fr
			}
		}()
	}
	wg.Wait()
	faults.Disable()
	sessions := s.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %+v", sessions)
	}
	if sessions[0].Pos != fed {
		t.Fatalf("session pos %d != bytes acknowledged %d (lost or duplicated consumption)", sessions[0].Pos, fed)
	}
}
