// Package chaostest is the chaos harness for the serving stack: it
// replays the 64-client load smoke with deterministic faults injected
// at every seam — injected I/O errors, delays, worker panics, lease
// refusals, WAL append failures and dropped TCP connections — and
// demands the system's correctness invariants hold anyway:
//
//   - every client's match set is bit-identical to a sequential
//     reference (zero dropped, zero duplicated matches),
//   - the machine-lease pools balance (Gets == Puts + open sessions),
//   - the resilience metrics account for what happened,
//   - sessions checkpointed to the WAL resume across a restart,
//   - and the whole run finishes (no deadlocks) under the test timeout.
//
// Every injected fault fires BEFORE the state mutation its seam guards
// (the placement discipline in DESIGN.md), so clients treat injected
// 5xx responses as retryable and the reference comparison stays exact.
package chaostest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

var chaosPatterns = []string{"needle[0-9]", "hay.{2}stack", "x[abc]+y"}

// chaosInput builds a deterministic input salted with pattern hits.
func chaosInput(rng *rand.Rand, n int) []byte {
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

// chaosRules is the fault plan: every seam of the serving stack, each
// with a rate high enough to fire constantly across the run.
func chaosRules() map[string]faults.Rule {
	return map[string]faults.Rule{
		"server.match":         {Rate: 0.15, Kinds: faults.KindError | faults.KindDelay | faults.KindPanic, MaxDelay: time.Millisecond},
		"server.feed":          {Rate: 0.10, Kinds: faults.KindError | faults.KindDelay, MaxDelay: time.Millisecond},
		"server.open":          {Rate: 0.20, Kinds: faults.KindError},
		"server.suspend":       {Rate: 0.20, Kinds: faults.KindError},
		"server.wal.append":    {Rate: 0.05, Kinds: faults.KindError},
		"machine.pool.get":     {Rate: 0.10, Kinds: faults.KindError},
		"machine.shard.worker": {Rate: 0.10, Kinds: faults.KindPanic},
		"server.tcp.conn":      {Rate: 0.50, Kinds: faults.KindError},
		"server.batch.flush":   {Rate: 0.20, Kinds: faults.KindError | faults.KindDelay | faults.KindPanic, MaxDelay: time.Millisecond},
	}
}

// doJSON posts body and decodes into out, returning the status.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
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
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		_ = json.Unmarshal(data, out)
	}
	return resp.StatusCode
}

// TestChaosServingStack is the harness entry point.
func TestChaosServingStack(t *testing.T) {
	clients := 64
	inputLen := 4096
	if testing.Short() {
		clients = 16
		inputLen = 1024
	}
	const retryCap = 200 // injected faults are retryable; organic errors are not

	reg := telemetry.NewRegistry()
	col := telemetry.NewServerCollector(reg) // same names → same counters as the server's
	walDir := t.TempDir()

	// MaxShards must be set explicitly: its default is GOMAXPROCS, which
	// on a single-core runner clamps every request to one shard and the
	// machine.shard.worker seam would never fire. BatchWindow turns the
	// coalescer on so the unsharded one-shot clients ride shared batch
	// sweeps and the server.batch.flush seam fires per batch member — a
	// faulted member must fail alone, so its client retries while its
	// batch-mates' matches stay bit-identical to the reference.
	s := server.New(server.Config{Registry: reg, MaxShards: 4, BatchWindow: 250 * time.Microsecond})
	if _, err := s.AttachWAL(walDir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Compile(context.Background(), "chaos", server.CompileRequest{Patterns: chaosPatterns}); err != nil {
		t.Fatal(err)
	}
	ref, err := ca.CompileRegex(chaosPatterns, ca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Precompute every client's input and reference result BEFORE enabling
	// the injector: the injector is process-global, and the reference
	// automaton's own machine leases must not draw faults.
	inputs := make([][]byte, clients)
	wants := make([][]ca.Match, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(int64(c)*7919 + 17))
		n := inputLen
		if c%4 == 1 {
			// Sharded one-shots need inputs past the engine's sequential
			// fallback threshold, or the shard-worker seam never runs.
			n = 64 << 10
		}
		inputs[c] = chaosInput(rng, n)
		if wants[c], _, err = ref.RunContext(context.Background(), inputs[c]); err != nil {
			t.Fatalf("client %d reference: %v", c, err)
		}
	}

	in := faults.NewInjector(0xCA05, chaosRules())
	faults.Enable(in)
	defer faults.Disable()

	// retry re-runs op until it reports success or the cap trips; op
	// returns (done, retryable-failure description).
	retry := func(c int, what string, op func() (bool, string)) string {
		for i := 0; i < retryCap; i++ {
			ok, _ := op()
			if ok {
				return ""
			}
		}
		return fmt.Sprintf("client %d: %s did not succeed in %d attempts", c, what, retryCap)
	}

	var wg sync.WaitGroup
	errs := make(chan string, clients)
	httpc := &http.Client{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*31 + 7))
			input, want := inputs[c], wants[c]
			var got []server.WireMatch
			switch c % 4 {
			case 0, 1: // one-shot matches, sequential and sharded
				req := server.MatchRequest{Ruleset: "chaos", InputB64: base64.StdEncoding.EncodeToString(input)}
				if c%4 == 1 {
					req.Shards = 2 + rng.Intn(3)
				}
				if msg := retry(c, "match", func() (bool, string) {
					var resp server.MatchResponse
					code := doJSON(t, httpc, "POST", ts.URL+"/match", req, &resp)
					if code != http.StatusOK {
						return false, fmt.Sprintf("status %d", code)
					}
					got = resp.Matches
					return true, ""
				}); msg != "" {
					errs <- msg
					return
				}
			default: // streaming sessions; c%4==3 migrates mid-stream
				migrate := c%4 == 3
				var sess server.SessionInfo
				if msg := retry(c, "open", func() (bool, string) {
					code := doJSON(t, httpc, "POST", ts.URL+"/sessions", server.OpenSessionRequest{Ruleset: "chaos"}, &sess)
					return code == http.StatusOK, fmt.Sprintf("status %d", code)
				}); msg != "" {
					errs <- msg
					return
				}
				for pos := 0; pos < len(input); {
					n := 1 + rng.Intn(512)
					if pos+n > len(input) {
						n = len(input) - pos
					}
					var feed server.FeedResponse
					fr := server.FeedRequest{ChunkB64: base64.StdEncoding.EncodeToString(input[pos : pos+n])}
					if msg := retry(c, "feed", func() (bool, string) {
						code := doJSON(t, httpc, "POST", ts.URL+"/sessions/"+sess.Session+"/feed", fr, &feed)
						return code == http.StatusOK, fmt.Sprintf("status %d", code)
					}); msg != "" {
						errs <- msg
						return
					}
					got = append(got, feed.Matches...)
					pos += n
					if feed.Pos != int64(pos) {
						errs <- fmt.Sprintf("client %d: session pos %d after feeding %d bytes", c, feed.Pos, pos)
						return
					}
					if migrate && pos > len(input)/2 {
						migrate = false
						var susp server.SuspendResponse
						if msg := retry(c, "suspend", func() (bool, string) {
							code := doJSON(t, httpc, "POST", ts.URL+"/sessions/"+sess.Session+"/suspend", nil, &susp)
							return code == http.StatusOK, fmt.Sprintf("status %d", code)
						}); msg != "" {
							errs <- msg
							return
						}
						if msg := retry(c, "resume", func() (bool, string) {
							code := doJSON(t, httpc, "POST", ts.URL+"/sessions",
								server.OpenSessionRequest{Ruleset: "chaos", SnapshotB64: susp.SnapshotB64}, &sess)
							return code == http.StatusOK, fmt.Sprintf("status %d", code)
						}); msg != "" {
							errs <- msg
							return
						}
					}
				}
				doJSON(t, httpc, "DELETE", ts.URL+"/sessions/"+sess.Session, nil, nil)
			}
			if len(got) != len(want) {
				errs <- fmt.Sprintf("client %d (mode %d): %d matches, reference has %d (dropped or duplicated under faults)", c, c%4, len(got), len(want))
				return
			}
			for i := range got {
				if got[i].Offset != want[i].Offset || got[i].Pattern != want[i].Pattern {
					errs <- fmt.Sprintf("client %d: match %d = %+v, reference %+v", c, i, got[i], want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}

	// TCP phase: the dropped-connection seam. Half the conns die before
	// their first line (rate 0.5); survivors must serve, victims must
	// close cleanly, and nothing may leak either way.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpSrv := s.ServeTCP(ln)
	served, dropped := 0, 0
	for i := 0; i < 16; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "{\"op\":\"ping\"}\n")
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			dropped++ // injected conn drop: clean close, no response
		} else if strings.Contains(line, "pong") {
			served++
		} else {
			t.Errorf("tcp conn %d: unexpected line %q", i, line)
		}
		conn.Close()
	}
	if served == 0 || dropped == 0 {
		t.Errorf("tcp chaos: served=%d dropped=%d, want both > 0", served, dropped)
	}
	{
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := tcpSrv.Shutdown(ctx); err != nil {
			t.Errorf("tcp shutdown: %v", err)
		}
		cancel()
	}

	// A timeout drill for the cancellation metric: a pre-canceled feed
	// must 504 without consuming anything.
	faults.Disable()
	drill, err := s.OpenSession(context.Background(), server.OpenSessionRequest{Ruleset: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Feed(cctx, drill.Session, server.FeedRequest{Chunk: "hay..stack"}); err == nil {
		t.Error("pre-canceled feed succeeded")
	}

	// Invariants and metrics.
	open := int64(len(s.Sessions()))
	ls := s.LeaseStats()
	if ls.Gets != ls.Puts+open {
		t.Errorf("lease imbalance: Gets %d != Puts %d + open sessions %d", ls.Gets, ls.Puts, open)
	}
	if got := col.Panics.Value(); got == 0 {
		t.Error("ca_server_panics_total = 0, want > 0 (injected panics were recovered)")
	}
	if got := col.Timeouts.Value(); got == 0 {
		t.Error("ca_server_timeouts_total = 0, want > 0")
	}
	if got := col.WALRecords.Value(); got == 0 {
		t.Error("ca_wal_records_total = 0, want > 0")
	}
	st := in.Stats()
	for point, ps := range st {
		if ps.Checks == 0 {
			t.Errorf("seam %s was never exercised", point)
		}
	}
	seen := in.Seen()
	sort.Strings(seen)
	t.Logf("chaos run: seams exercised: %v", seen)
	for p, ps := range st {
		t.Logf("  %-22s checks=%d errors=%d delays=%d panics=%d", p, ps.Checks, ps.Errors, ps.Delays, ps.Panics)
	}

	// Restart phase: drain (keeping the drill session's checkpoint),
	// attach a fresh server to the same WAL dir, and prove the session
	// resumes and keeps matching.
	{
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	s2 := server.New(server.Config{Registry: reg})
	rst, err := s2.AttachWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if rst.Rulesets != 1 || rst.Sessions != 1 {
		t.Fatalf("replay stats = %+v, want 1 ruleset and the drill session", rst)
	}
	if got := col.WALReplayed.Value(); got == 0 {
		t.Error("ca_wal_replayed_total = 0, want > 0")
	}
	fr, err := s2.Feed(context.Background(), drill.Session, server.FeedRequest{Chunk: "hay..stack"})
	if err != nil {
		t.Fatalf("feed after restart: %v", err)
	}
	if len(fr.Matches) != 1 {
		t.Fatalf("resumed session found %d matches, want 1", len(fr.Matches))
	}
}
