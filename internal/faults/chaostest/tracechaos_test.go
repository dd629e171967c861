package chaostest

import (
	"bufio"
	"context"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// traceChaosRules is the fault plan for the trace-accounting run: errors
// at every seam, and panics too at the six seams whose callers recover
// into a traced request. Delays are excluded on purpose — this test
// reconciles the injector's per-point Errors+Panics counters against
// fault notes on retained traces, and a seam notes each injected error
// or panic exactly once but never a delay.
func traceChaosRules() map[string]faults.Rule {
	const errOrPanic = faults.KindError | faults.KindPanic
	return map[string]faults.Rule{
		"server.match":         {Rate: 0.15, Kinds: errOrPanic},
		"server.feed":          {Rate: 0.10, Kinds: errOrPanic},
		"server.open":          {Rate: 0.20, Kinds: errOrPanic},
		"server.suspend":       {Rate: 0.20, Kinds: errOrPanic},
		"server.wal.append":    {Rate: 0.05, Kinds: faults.KindError},
		"machine.pool.get":     {Rate: 0.10, Kinds: faults.KindError},
		"machine.shard.worker": {Rate: 0.10, Kinds: errOrPanic},
		"server.tcp.conn":      {Rate: 0.50, Kinds: faults.KindError},
		// The batched one-shot population is small (a quarter of the
		// clients), so this seam fires at a high rate to make a zero-fire
		// run statistically negligible.
		"server.batch.flush": {Rate: 0.5, Kinds: errOrPanic},
	}
}

// TestChaosTraceAccounting proves the flight recorder loses no faults:
// after a chaos run with errors injected at all nine seams (and panics
// at six), every fault the injector fired appears as a "fault" note on
// exactly one retained trace — the per-point note totals over the ring
// equal the injector's per-point Errors+Panics counters exactly. The ring is
// sized far above the fault volume and every faulted trace is pinned,
// so nothing can be evicted; the injector is disabled before shutdown
// so no fault fires on an untraced teardown path.
func TestChaosTraceAccounting(t *testing.T) {
	clients := 32
	inputLen := 2048
	if testing.Short() {
		clients = 8
	}
	const retryCap = 200

	reg := telemetry.NewRegistry()
	walDir := t.TempDir()
	s := server.New(server.Config{
		Registry:  reg,
		MaxShards: 4,
		// Batching on: unsharded one-shots coalesce, so server.batch.flush
		// fires per batch member. The seam notes the faulted member's
		// trace before the batch's ready broadcast, so the
		// exact fired==noted reconciliation below holds for this seam too.
		BatchWindow: 250 * time.Microsecond,
		// Every faulted trace must survive until the final accounting:
		// a ring far above the expected fault volume, and an idle
		// timeout long enough that the background reaper (which runs
		// without a request trace) never closes a session mid-run.
		TraceRingSize: 16384,
		SessionIdle:   time.Hour,
	})
	if _, err := s.AttachWAL(walDir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Compile(context.Background(), "chaos", server.CompileRequest{Patterns: chaosPatterns}); err != nil {
		t.Fatal(err)
	}

	inputs := make([][]byte, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(int64(c)*7919 + 17))
		n := inputLen
		if c%4 == 1 {
			n = 64 << 10 // sharded one-shots must exceed the sequential fallback
		}
		inputs[c] = chaosInput(rng, n)
	}

	in := faults.NewInjector(0x7Ace, traceChaosRules())
	faults.Enable(in)
	defer faults.Disable()

	retry := func(op func() bool) bool {
		for i := 0; i < retryCap; i++ {
			if op() {
				return true
			}
		}
		return false
	}

	var wg sync.WaitGroup
	errs := make(chan string, clients)
	httpc := &http.Client{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*31 + 7))
			input := inputs[c]
			switch c % 4 {
			case 0, 1: // one-shot matches; odd clients shard
				req := server.MatchRequest{Ruleset: "chaos", InputB64: base64.StdEncoding.EncodeToString(input)}
				if c%4 == 1 {
					req.Shards = 2 + rng.Intn(3)
				}
				if !retry(func() bool {
					return doJSON(t, httpc, "POST", ts.URL+"/match", req, nil) == http.StatusOK
				}) {
					errs <- fmt.Sprintf("client %d: match never succeeded", c)
				}
			default: // streaming sessions; c%4==3 migrates mid-stream
				migrate := c%4 == 3
				var sess server.SessionInfo
				if !retry(func() bool {
					return doJSON(t, httpc, "POST", ts.URL+"/sessions", server.OpenSessionRequest{Ruleset: "chaos"}, &sess) == http.StatusOK
				}) {
					errs <- fmt.Sprintf("client %d: open never succeeded", c)
					return
				}
				for pos := 0; pos < len(input); {
					n := 1 + rng.Intn(512)
					if pos+n > len(input) {
						n = len(input) - pos
					}
					fr := server.FeedRequest{ChunkB64: base64.StdEncoding.EncodeToString(input[pos : pos+n])}
					if !retry(func() bool {
						return doJSON(t, httpc, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", fr, nil) == http.StatusOK
					}) {
						errs <- fmt.Sprintf("client %d: feed never succeeded", c)
						return
					}
					pos += n
					if migrate && pos > len(input)/2 {
						migrate = false
						var susp server.SuspendResponse
						if !retry(func() bool {
							return doJSON(t, httpc, "POST", ts.URL+"/sessions/"+sess.Session+"/suspend", nil, &susp) == http.StatusOK
						}) {
							errs <- fmt.Sprintf("client %d: suspend never succeeded", c)
							return
						}
						if !retry(func() bool {
							return doJSON(t, httpc, "POST", ts.URL+"/sessions",
								server.OpenSessionRequest{Ruleset: "chaos", SnapshotB64: susp.SnapshotB64}, &sess) == http.StatusOK
						}) {
							errs <- fmt.Sprintf("client %d: resume never succeeded", c)
							return
						}
					}
				}
				doJSON(t, httpc, "DELETE", ts.URL+"/sessions/"+sess.Session, nil, nil)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	// TCP phase exercises the dropped-connection seam, whose faults land
	// on synthetic conn-scoped traces.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpSrv := s.ServeTCP(ln)
	for i := 0; i < 16; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "{\"op\":\"ping\"}\n")
		_, _ = bufio.NewReader(conn).ReadString('\n')
		conn.Close()
	}
	{
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := tcpSrv.Shutdown(ctx); err != nil {
			t.Errorf("tcp shutdown: %v", err)
		}
		cancel()
	}

	// Stop injecting BEFORE any teardown: shutdown checkpoints sessions
	// outside any request, and a fault fired there would have no trace
	// to land on.
	faults.Disable()

	// Reconcile: per-point fault notes across all retained traces must
	// equal the injector's per-point Errors+Panics counters.
	noted := make(map[string]uint64)
	tracesWithFaults := 0
	for _, rep := range s.Ring().All() {
		had := false
		for _, n := range rep.Notes {
			if n.Key == "fault" {
				noted[n.Value]++
				had = true
			}
		}
		if had {
			tracesWithFaults++
		}
	}
	st := in.Stats()
	points := make([]string, 0, len(st))
	for p := range st {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, p := range points {
		fired := st[p].Errors + st[p].Panics
		if fired == 0 {
			t.Errorf("seam %s fired no faults; the run did not exercise it", p)
		}
		if noted[p] != fired {
			t.Errorf("seam %s: injector fired %d faults, traces carry %d fault notes", p, fired, noted[p])
		}
		t.Logf("  %-22s fired=%d (panics=%d) noted=%d", p, fired, st[p].Panics, noted[p])
	}
	for p := range noted {
		if _, ok := st[p]; !ok {
			t.Errorf("traces carry %d notes for unknown point %q", noted[p], p)
		}
	}
	t.Logf("trace accounting: %d retained traces carry faults", tracesWithFaults)
	if got := len(s.Ring().Snapshot().Pinned); got >= 16384 {
		t.Fatalf("pinned ring saturated (%d) — accounting may have lost evicted traces", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
