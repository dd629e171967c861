package server

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/telemetry"
)

// TestDrainReloadRace races hot reloads (and streaming feeds, which hold
// leases) against Shutdown. The contract under test: a reload that wins
// the race completes and publishes a coherent new version — Shutdown
// waits for it like any in-flight op — while a reload that loses is shed
// with 503 and leaves no trace: no revived rule set, no ruleset stuck in
// a "reloading" readiness state, and no leaked machine lease on any
// version's pools (Gets == Puts audited across every automaton ever
// published).
func TestDrainReloadRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _ := testServer(t, Config{Registry: reg, MaxSessions: 64})
	ctx := context.Background()
	reqA := CompileRequest{Patterns: []string{"aaa"}}
	reqB := CompileRequest{Patterns: []string{"aaa", "bbb"}}
	if _, err := s.Compile(ctx, "ids", reqA); err != nil {
		t.Fatal(err)
	}

	// Every published version's automaton, captured so the final lease
	// audit also covers pools the reload swap dropped from the map.
	var autMu sync.Mutex
	seen := make(map[*ca.Automaton]bool)
	var automatons []*ca.Automaton
	capture := func() {
		s.mu.RLock()
		a := s.rulesets["ids"].a
		s.mu.RUnlock()
		autMu.Lock()
		if !seen[a] {
			seen[a] = true
			automatons = append(automatons, a)
		}
		autMu.Unlock()
	}
	capture()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Streaming sessions keep leases checked out across the drain.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				info, err := s.OpenSession(ctx, OpenSessionRequest{Ruleset: "ids"})
				if err != nil {
					if statusOf(err) != http.StatusServiceUnavailable {
						t.Errorf("open: %v", err)
					}
					return
				}
				for j := 0; j < 4; j++ {
					if _, err := s.Feed(ctx, info.Session, FeedRequest{Chunk: "xx aaa bbb "}); err != nil {
						if !drainedUnderUs(err) {
							t.Errorf("feed: %v", err)
						}
						return
					}
				}
				if err := s.CloseSession(ctx, info.Session); err != nil && !drainedUnderUs(err) {
					t.Errorf("close: %v", err)
				}
			}
		}()
	}

	// Reloaders flip the definition back and forth until shed.
	reloadOK := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := reqA
			if i%2 == 1 {
				req = reqB
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Reload(ctx, "ids", &req); err != nil {
					if statusOf(err) != http.StatusServiceUnavailable {
						t.Errorf("reload: %v", err)
					}
					return
				}
				capture()
				reloadOK[i]++
			}
		}(i)
	}

	// Let the race build up real contention, then drain mid-flight.
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	capture()

	total := 0
	for _, n := range reloadOK {
		total += n
	}
	if total == 0 {
		t.Fatal("no reload completed before the drain; race not exercised")
	}

	// No revival: a reload after the drain is shed, the rule set's
	// version is frozen, and readiness stays down.
	frozen, err := s.Ruleset("ids")
	if err != nil {
		t.Fatalf("ruleset after drain: %v", err)
	}
	if _, err := s.Reload(ctx, "ids", &reqB); statusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("reload after drain: err %v, want 503", err)
	}
	if s.Readyz() {
		t.Fatal("ready after drain")
	}
	after, err := s.Ruleset("ids")
	if err != nil || after.Version != frozen.Version {
		t.Fatalf("drained rule set revived: version %d -> %d (err %v)", frozen.Version, after.Version, err)
	}

	// No ruleset may be stuck mid-transition: a shed reload must roll its
	// readiness state back, a completed one must have published it.
	for name, state := range s.ReadyDetail().Rulesets {
		if state == "reloading" || state == "compiling" {
			t.Fatalf("ruleset %s stuck in state %q after drain", name, state)
		}
	}

	// Lease audit across every version ever published: the drain closed
	// all sessions, so every Get must have its Put.
	var gets, puts int64
	for _, a := range automatons {
		st := a.LeaseStats()
		gets += st.Gets
		puts += st.Puts
	}
	if gets != puts {
		t.Fatalf("lease audit across %d versions: Gets=%d Puts=%d", len(automatons), gets, puts)
	}
	if got := reg.Counter("ca_server_reloads_total", "").Value(); got != int64(total) {
		t.Fatalf("ca_server_reloads_total = %d, want %d", got, total)
	}
}

// drainedUnderUs reports whether a session op failed in one of the ways
// a concurrent drain legally makes it fail: shed at begin() (503), the
// session already removed (404), or found closed under its lock (409).
func drainedUnderUs(err error) bool {
	switch statusOf(err) {
	case http.StatusServiceUnavailable, http.StatusNotFound, http.StatusConflict:
		return true
	}
	return false
}
