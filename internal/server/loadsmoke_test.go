package server

import (
	"context"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/telemetry"
)

var smokePatterns = []string{"needle[0-9]", "hay.{2}stack", "x[abc]+y"}

// smokeInput builds a deterministic input salted with pattern hits.
func smokeInput(rng *rand.Rand, n int) []byte {
	const filler = "abcdefghij xyz 0123456789 haystack "
	buf := make([]byte, 0, n+16)
	for len(buf) < n {
		if rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				buf = append(buf, fmt.Sprintf("needle%d", rng.Intn(10))...)
			case 1:
				buf = append(buf, "hay..stack"...)
			default:
				buf = append(buf, "xabcacby"...)
			}
		} else {
			i := rng.Intn(len(filler) - 8)
			buf = append(buf, filler[i:i+8]...)
		}
	}
	return buf[:n]
}

// TestLoadSmoke64Clients is the acceptance load test: 64 concurrent
// clients — a mix of one-shot matchers (sequential and sharded) and
// streaming sessions (some migrating mid-stream via suspend/resume) —
// must each receive a match set identical to the sequential Run
// reference computed on a private Automaton.
func TestLoadSmoke64Clients(t *testing.T) {
	clients := 64
	inputLen := 4096
	if testing.Short() {
		clients = 16
		inputLen = 1024
	}

	// The queue is sized so every client is admitted whatever GOMAXPROCS
	// the runner has: with the defaults a 2-core host has 2 workers and 8
	// queue slots, and the one-shot half of the clients arriving at once
	// is shed by design (503), which is not what this test is about.
	_, ts := testServer(t, Config{QueueDepth: 2 * clients, QueueWait: time.Minute})
	compileRules(t, ts, "smoke", smokePatterns...)

	// Sequential reference on an automaton the server never touches.
	ref, err := ca.CompileRegex(smokePatterns, ca.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) * 7919))
			input := smokeInput(rng, inputLen)
			want, _, err := ref.RunContext(context.Background(), input)
			if err != nil {
				errs <- fmt.Errorf("client %d: reference: %v", c, err)
				return
			}
			var got []WireMatch
			switch c % 4 {
			case 0, 1: // one-shot, sequential and sharded
				req := MatchRequest{Ruleset: "smoke", InputB64: base64.StdEncoding.EncodeToString(input)}
				if c%4 == 1 {
					req.Shards = 1 + rng.Intn(4)
				}
				var resp MatchResponse
				if code := doJSON(t, "POST", ts.URL+"/match", req, &resp); code != 200 {
					errs <- fmt.Errorf("client %d: match status %d", c, code)
					return
				}
				got = resp.Matches
			default: // streaming session, random chunking
				migrate := c%4 == 3
				var sess SessionInfo
				if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "smoke"}, &sess); code != 200 {
					errs <- fmt.Errorf("client %d: open status %d", c, code)
					return
				}
				for pos := 0; pos < len(input); {
					n := 1 + rng.Intn(512)
					if pos+n > len(input) {
						n = len(input) - pos
					}
					var feed FeedResponse
					fr := FeedRequest{ChunkB64: base64.StdEncoding.EncodeToString(input[pos : pos+n])}
					if code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", fr, &feed); code != 200 {
						errs <- fmt.Errorf("client %d: feed status %d", c, code)
						return
					}
					got = append(got, feed.Matches...)
					pos += n
					if migrate && pos > len(input)/2 {
						migrate = false
						var susp SuspendResponse
						if code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/suspend", nil, &susp); code != 200 {
							errs <- fmt.Errorf("client %d: suspend status %d", c, code)
							return
						}
						if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "smoke", SnapshotB64: susp.SnapshotB64}, &sess); code != 200 {
							errs <- fmt.Errorf("client %d: resume status %d", c, code)
							return
						}
					}
				}
				doJSON(t, "DELETE", ts.URL+"/sessions/"+sess.Session, nil, nil)
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("client %d (mode %d): %d matches, reference has %d", c, c%4, len(got), len(want))
				return
			}
			for i := range got {
				if got[i].Offset != want[i].Offset || got[i].Pattern != want[i].Pattern {
					errs <- fmt.Errorf("client %d: match %d = %+v, reference %+v", c, i, got[i], want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDrainDoesNotDropMatches starts streaming clients, shuts the server
// down mid-stream, and checks every client's received matches equal the
// sequential reference over exactly the prefix it successfully fed: a
// feed that returned 200 delivered all its matches even while the drain
// was racing it, and no 200 was lost.
func TestDrainDoesNotDropMatches(t *testing.T) {
	clients := 16
	s := New(Config{Registry: telemetry.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	ref, err := ca.CompileRegex(smokePatterns, ca.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var started sync.WaitGroup
	started.Add(clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			signaled := false
			signal := func() {
				if !signaled {
					signaled = true
					started.Done()
				}
			}
			defer signal()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			input := smokeInput(rng, 1<<20)
			var sess SessionInfo
			if code := doJSON(t, "POST", ts.URL+"/sessions", OpenSessionRequest{Ruleset: "smoke"}, &sess); code != 200 {
				errs <- fmt.Errorf("client %d: open status %d", c, code)
				return
			}
			var got []WireMatch
			fed := int64(0)
			for pos := 0; pos < len(input); {
				n := 256 + rng.Intn(1024)
				if pos+n > len(input) {
					n = len(input) - pos
				}
				var feed FeedResponse
				fr := FeedRequest{ChunkB64: base64.StdEncoding.EncodeToString(input[pos : pos+n])}
				code := doJSON(t, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", fr, &feed)
				if code != 200 {
					if code != 503 && code != 404 && code != 409 {
						errs <- fmt.Errorf("client %d: feed during drain: status %d", c, code)
					}
					break
				}
				got = append(got, feed.Matches...)
				fed = feed.Pos
				pos += n
				if pos >= 2048 {
					signal() // mid-stream: safe to start draining
				}
			}
			// Every match the reference finds in the fed prefix must have
			// been delivered, and nothing else.
			want, _, err := ref.RunContext(context.Background(), input[:fed])
			if err != nil {
				errs <- fmt.Errorf("client %d: reference: %v", c, err)
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("client %d: drained with %d matches over %d fed bytes, reference has %d", c, len(got), fed, len(want))
				return
			}
			for i := range got {
				if got[i].Offset != want[i].Offset || got[i].Pattern != want[i].Pattern {
					errs <- fmt.Errorf("client %d: match %d = %+v, reference %+v", c, i, got[i], want[i])
					return
				}
			}
		}(c)
	}

	started.Wait() // all clients are mid-stream
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(s.Sessions()); n != 0 {
		t.Errorf("%d sessions survived drain", n)
	}
}
