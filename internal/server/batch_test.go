package server

import (
	"context"
	"encoding/base64"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheautomaton/internal/difftest"
	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// batchedConfig is the standard batching-enabled test shape: a window
// short enough to keep tests fast but long enough that concurrent
// members actually coalesce.
func batchedConfig() Config {
	return Config{
		Registry:     telemetry.NewRegistry(),
		BatchWindow:  2 * time.Millisecond,
		BatchMax:     16,
		MatchWorkers: 4,
		QueueDepth:   256,
		QueueWait:    time.Minute,
	}
}

// matchTraced drives one in-process Match through the trace plumbing
// and returns the response and finished trace report.
func matchTraced(t *testing.T, s *Server, req MatchRequest) (*MatchResponse, *telemetry.ReqReport, error) {
	t.Helper()
	rt := s.newTrace("match")
	ctx := telemetry.WithReqTrace(context.Background(), rt)
	resp, err := s.Match(ctx, req)
	outcome, msg := outcomeOf(err)
	rep := s.finishTrace(rt, outcome, msg)
	return resp, rep, err
}

// TestMatchDifferentialBatched is the batching half of the serving
// differential harness: concurrent batched /match requests must agree
// with the per-request server AND the Go regexp oracle — bit-identical
// match sets with correct per-request offsets, even though any number
// of the requests shared one batch.
func TestMatchDifferentialBatched(t *testing.T) {
	sBat, _ := testServer(t, batchedConfig())
	sRef, _ := testServer(t, Config{})
	g := difftest.New(11)
	cases := 12
	if testing.Short() {
		cases = 4
	}
	const members = 8
	for i := 0; i < cases; i++ {
		patterns := g.Patterns(3)
		oracle, err := difftest.NewOracle(patterns)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("d%d", i)
		for _, s := range []*Server{sBat, sRef} {
			if _, err := s.Compile(context.Background(), name, CompileRequest{Patterns: patterns}); err != nil {
				t.Fatalf("case %d compile: %v", i, err)
			}
		}
		inputs := make([][]byte, members)
		for m := range inputs {
			inputs[m] = g.Input(64 + 32*m + i)
		}
		// Fire all members concurrently so the batcher actually coalesces.
		got := make([][]difftest.Report, members)
		var wg sync.WaitGroup
		errs := make(chan error, members)
		for m := 0; m < members; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				resp, _, err := matchTraced(t, sBat, MatchRequest{
					Ruleset: name, InputB64: base64.StdEncoding.EncodeToString(inputs[m])})
				if err != nil {
					errs <- fmt.Errorf("member %d: %w", m, err)
					return
				}
				rep := make([]difftest.Report, len(resp.Matches))
				for j, mm := range resp.Matches {
					rep[j] = difftest.Report{Pattern: mm.Pattern, Offset: mm.Offset}
				}
				got[m] = rep
			}(m)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for m := 0; m < members; m++ {
			if d := difftest.Diff(oracle.Reports(inputs[m]), difftest.Set(got[m])); d != "" {
				t.Fatalf("case %d member %d: batched /match diverges from oracle\npatterns=%q\n%s",
					i, m, patterns, d)
			}
			refResp, err := sRef.Match(context.Background(), MatchRequest{
				Ruleset: name, InputB64: base64.StdEncoding.EncodeToString(inputs[m])})
			if err != nil {
				t.Fatal(err)
			}
			if len(refResp.Matches) != len(got[m]) {
				t.Fatalf("case %d member %d: batched %d matches, per-request %d",
					i, m, len(got[m]), len(refResp.Matches))
			}
			for j, mm := range refResp.Matches {
				if got[m][j] != (difftest.Report{Pattern: mm.Pattern, Offset: mm.Offset}) {
					t.Fatalf("case %d member %d match %d: batched %+v, per-request %+v",
						i, m, j, got[m][j], mm)
				}
			}
		}
	}
	if sBat.col.BatchedRequests.Value() == 0 {
		t.Fatal("no request was ever batched — the differential never exercised coalescing")
	}
	if st := sBat.LeaseStats(); st.Gets != st.Puts {
		t.Fatalf("lease imbalance after batched runs: gets %d puts %d", st.Gets, st.Puts)
	}
}

// TestBatchTraceSpan: a batched request's trace must carry a "batch"
// stage with the batch id, size, and wait attributes.
func TestBatchTraceSpan(t *testing.T) {
	s, _ := testServer(t, batchedConfig())
	if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	input := smokeInput(rand.New(rand.NewSource(3)), 1024)
	_, rep, err := matchTraced(t, s, MatchRequest{Ruleset: "smoke", Input: string(input)})
	if err != nil {
		t.Fatal(err)
	}
	var batch *telemetry.StageReport
	for i := range rep.Stages {
		if rep.Stages[i].Name == "batch" {
			batch = &rep.Stages[i]
		}
	}
	if batch == nil {
		t.Fatalf("no batch stage in %+v", rep.Stages)
	}
	attrs := map[string]int64{}
	for _, a := range batch.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["batch_id"] < 1 || attrs["batch_size"] < 1 {
		t.Fatalf("batch stage attrs = %v, want batch_id and batch_size >= 1", attrs)
	}
	if _, ok := attrs["wait_us"]; !ok {
		t.Fatalf("batch stage attrs = %v, want wait_us", attrs)
	}
	if s.col.BatchSize.Count() == 0 || s.col.BatchWait.Count() == 0 {
		t.Fatal("batch histograms recorded nothing")
	}
}

// TestBatchBypass: oversize, sharded, and deadline-critical requests
// must take the per-request path untouched; with BatchWindow == 0 the
// batcher must not exist at all.
func TestBatchBypass(t *testing.T) {
	cfg := batchedConfig()
	s, _ := testServer(t, cfg)
	if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	big := smokeInput(rand.New(rand.NewSource(4)), batchBytes+1)
	small := big[:256]

	check := func(s *Server, label string, req MatchRequest, ctx context.Context) *telemetry.ReqReport {
		t.Helper()
		rt := s.newTrace("match")
		resp, err := s.Match(telemetry.WithReqTrace(ctx, rt), req)
		rep := s.finishTrace(rt, "ok", "")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if resp == nil {
			t.Fatalf("%s: nil response", label)
		}
		for _, st := range rep.Stages {
			if st.Name == "batch" {
				t.Fatalf("%s: request was batched, want bypass", label)
			}
		}
		return rep
	}

	check(s, "oversize", MatchRequest{Ruleset: "smoke", Input: string(big)}, context.Background())
	check(s, "sharded", MatchRequest{Ruleset: "smoke", Input: string(small), Shards: 2}, context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), cfg.BatchWindow*3)
	defer cancel()
	check(s, "deadline-critical", MatchRequest{Ruleset: "smoke", Input: string(small)}, ctx)
	if n := s.col.BatchedRequests.Value(); n != 0 {
		t.Fatalf("%d requests were batched, want 0", n)
	}

	// BatchWindow == 0: no batcher is even constructed.
	sOff, _ := testServer(t, Config{})
	if _, err := sOff.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	sOff.mu.RLock()
	b := sOff.rulesets["smoke"].b
	sOff.mu.RUnlock()
	if b != nil {
		t.Fatal("batcher exists with BatchWindow == 0")
	}
	rep := check(sOff, "window-off", MatchRequest{Ruleset: "smoke", Input: string(small)}, context.Background())
	names := make([]string, len(rep.Stages))
	for i, st := range rep.Stages {
		names[i] = st.Name
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[lease queue run]" {
		t.Fatalf("window-off stages = %v, want the per-request [lease queue run]", names)
	}
}

// TestKernelMetricsExported: the node's registry carries the kernel layer.
// One per-request, one sharded and one coalesced /match are three runs
// whose symbols are exactly the bytes sent, whichever engine scanned them.
func TestKernelMetricsExported(t *testing.T) {
	cfg := batchedConfig()
	cfg.MaxShards = 2
	s, _ := testServer(t, cfg)
	if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	in := smokeInput(rand.New(rand.NewSource(5)), batchBytes+1)
	var sent, matches int64
	for _, req := range []MatchRequest{
		{Ruleset: "smoke", Input: string(in)}, // over batchBytes: per-request
		{Ruleset: "smoke", Input: string(in[:32<<10]), Shards: 2},
		{Ruleset: "smoke", Input: string(in[:256])}, // a batch of one
	} {
		resp, err := s.Match(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		sent += int64(len(req.Input))
		matches += int64(len(resp.Matches))
	}
	if n := s.col.BatchedRequests.Value(); n != 1 {
		t.Fatalf("%d requests were batched, want 1", n)
	}
	if got := s.runs.Runs.Value(); got != 3 {
		t.Errorf("ca_runs_total = %d, want 3", got)
	}
	if got := s.runs.Symbols.Value(); got != sent {
		t.Errorf("ca_run_symbols_total = %d, want the %d bytes sent", got, sent)
	}
	if got := s.runs.Matches.Value(); got != matches || matches == 0 {
		t.Errorf("ca_matches_total = %d, responses carried %d", got, matches)
	}
	var text strings.Builder
	if err := cfg.Registry.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ca_run_symbols_total", "ca_run_seconds_total", "ca_active_states_bucket", "ca_g1_crossings_total"} {
		if !strings.Contains(text.String(), "\n"+name) {
			t.Errorf("/metrics exposition lacks %s", name)
		}
	}
}

// TestBatchMemberFaultIsolation: with the server.batch.flush seam (once
// per member) or the machine.pool.get seam (once per distinct input's
// lease) firing errors and panics on roughly half the members, every
// failed member gets a structured 500, every surviving member's match
// set is still bit-identical to the per-request reference, nothing is
// dropped or duplicated, and the machine pool stays balanced. The 32
// inputs are distinct, so at either seam each injected fault fails
// exactly one member and is noted on exactly that member's trace.
func TestBatchMemberFaultIsolation(t *testing.T) {
	for _, kind := range []struct {
		name string
		k    faults.Kind
	}{{"error", faults.KindError}, {"panic", faults.KindPanic}} {
		t.Run(kind.name, func(t *testing.T) {
			for _, seam := range []string{"server.batch.flush", "machine.pool.get"} {
				t.Run(seam, func(t *testing.T) { batchFaultIsolation(t, seam, kind.k) })
			}
		})
	}
}

// batchFaultIsolation is one case of TestBatchMemberFaultIsolation: 32
// batched members with seam firing faults of kind k at rate 0.5.
func batchFaultIsolation(t *testing.T, seam string, k faults.Kind) {
	s, _ := testServer(t, batchedConfig())
	if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	ref, _ := testServer(t, Config{})
	if _, err := ref.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
		t.Fatal(err)
	}
	const members = 32
	inputs := make([][]byte, members)
	want := make([][]WireMatch, members)
	for m := range inputs {
		inputs[m] = smokeInput(rand.New(rand.NewSource(int64(m)*131+9)), 1024)
		resp, err := ref.Match(context.Background(), MatchRequest{Ruleset: "smoke", Input: string(inputs[m])})
		if err != nil {
			t.Fatal(err)
		}
		want[m] = resp.Matches
	}

	in := faults.NewInjector(0xBA7C, map[string]faults.Rule{
		seam: {Rate: 0.5, Kinds: k},
	})
	faults.Enable(in)
	defer faults.Disable()

	var wg sync.WaitGroup
	var mu sync.Mutex
	failed, ok := 0, 0
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			resp, _, err := matchTraced(t, s, MatchRequest{Ruleset: "smoke", Input: string(inputs[m])})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if statusOf(err) != 500 {
					t.Errorf("member %d: status %d, want 500", m, statusOf(err))
				}
				failed++
				return
			}
			ok++
			if len(resp.Matches) != len(want[m]) {
				t.Errorf("member %d: %d matches, want %d", m, len(resp.Matches), len(want[m]))
				return
			}
			for j := range want[m] {
				if resp.Matches[j] != want[m][j] {
					t.Errorf("member %d match %d: %+v, want %+v", m, j, resp.Matches[j], want[m][j])
					return
				}
			}
		}(m)
	}
	wg.Wait()
	faults.Disable()
	if failed == 0 || ok == 0 {
		t.Fatalf("fault mix did not split the batch: %d failed, %d ok", failed, ok)
	}
	fired := in.Stats()[seam].Errors + in.Stats()[seam].Panics
	if uint64(failed) != fired {
		t.Errorf("%d members failed, the seam fired %d faults", failed, fired)
	}
	var noted, faultedTraces uint64
	for _, rep := range s.Ring().All() {
		n := uint64(0)
		for _, note := range rep.Notes {
			if note.Key == "fault" {
				if note.Value != seam {
					t.Errorf("trace %s notes fault=%s, want %s", rep.ID, note.Value, seam)
				}
				n++
			}
		}
		noted += n
		if n > 0 {
			faultedTraces++
		}
	}
	if noted != fired || faultedTraces != fired {
		t.Errorf("the seam fired %d faults, %d retained traces carry %d fault notes", fired, faultedTraces, noted)
	}
	if k == faults.KindPanic && s.col.Panics.Value() == 0 {
		t.Fatal("panic kind fired but Panics counter is zero")
	}
	if st := s.LeaseStats(); st.Gets != st.Puts {
		t.Fatalf("lease imbalance: gets %d puts %d", st.Gets, st.Puts)
	}
	t.Logf("%d failed, %d ok, batched %d", failed, ok, s.col.BatchedRequests.Value())
}

// batchLoad drives clients×perClient small requests and returns the
// round's wall time (the batched analogue of matchLoad's shape).
func batchLoad(t *testing.T, s *Server, clients, perClient int, input []byte) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Match(context.Background(), MatchRequest{Ruleset: "smoke", Input: string(input)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestBatchedThroughputSmoke is the CI bench-smoke for the coalescer:
// on the 64-client 1KB shape, the batched server must beat the
// per-request server by at least 2x. Min-of-N rounds with alternating
// order and one retry, exactly like TestFlightRecorderOverhead, so a
// noise spike on a shared runner cannot decide the verdict.
//
// The floor was 3x while the per-request side pushed this one-word rule
// set through the four-word loop. The one-word loop halved the
// denominator (per-request best-of-5 18-21 ms -> 9-12 ms on the
// reference host; batched 3-4 ms on both sides, since all 64 clients
// send the same bytes and a batch scans them once), so the ratio reads
// 2.6-3.4x where it read 4.9-6.3x and 3x had become a coin flip.
func TestBatchedThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing assertion; skipped under the race detector")
	}
	clients, perClient, rounds := 64, 32, 5
	input := smokeInput(rand.New(rand.NewSource(2)), 1024)

	mk := func(batched bool) *Server {
		cfg := Config{
			Registry:      telemetry.NewRegistry(),
			TraceRingSize: -1,
			MatchWorkers:  8,
			QueueDepth:    2 * clients,
			QueueWait:     time.Minute,
		}
		if batched {
			cfg.BatchWindow = time.Millisecond
			cfg.BatchMax = 64
		}
		s := New(cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	batched := mk(true)
	perReq := mk(false)

	batchLoad(t, batched, clients, 2, input)
	batchLoad(t, perReq, clients, 2, input)

	measure := func() float64 {
		var bat, per []float64
		for r := 0; r < rounds; r++ {
			if r%2 == 0 {
				bat = append(bat, batchLoad(t, batched, clients, perClient, input).Seconds())
				per = append(per, batchLoad(t, perReq, clients, perClient, input).Seconds())
			} else {
				per = append(per, batchLoad(t, perReq, clients, perClient, input).Seconds())
				bat = append(bat, batchLoad(t, batched, clients, perClient, input).Seconds())
			}
		}
		best := func(v []float64) float64 {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			return s[0]
		}
		speedup := best(per) / best(bat)
		t.Logf("batched %.4fs per-request %.4fs speedup %.2fx", best(bat), best(per), speedup)
		return speedup
	}
	speedup := measure()
	if speedup < 2 {
		speedup = measure()
	}
	if speedup < 2 {
		t.Fatalf("batched serving speedup %.2fx < 2x floor after retry", speedup)
	}
	if batched.col.BatchedRequests.Value() == 0 {
		t.Fatal("batched server never batched anything")
	}
}

// BenchmarkBatchedServing10k is the acceptance benchmark: 10k
// concurrent 1KB /match requests against one rule set, batched vs
// per-request. In the plain cases every client sends one payload, which
// the flush's hot-key dedup collapses to one run per batch; in the
// /distinct cases each client sends its own, so a batch runs once per
// member. The bench/ ledger's server.burst64_* rows measure the same two
// paths on a 64-goroutine burst.
func BenchmarkBatchedServing10k(b *testing.B) {
	const concurrent, payload = 10000, 1024
	same := make([]string, concurrent)
	distinct := make([]string, concurrent)
	input := string(smokeInput(rand.New(rand.NewSource(2)), payload))
	rng := rand.New(rand.NewSource(3))
	for c := range same {
		same[c] = input
		distinct[c] = string(smokeInput(rng, payload))
	}
	mk := func(batched bool) *Server {
		cfg := Config{
			Registry:      telemetry.NewRegistry(),
			TraceRingSize: -1,
			MatchWorkers:  8,
			QueueDepth:    2 * concurrent,
			QueueWait:     time.Minute,
		}
		if batched {
			cfg.BatchWindow = time.Millisecond
			cfg.BatchMax = 256
		}
		s := New(cfg)
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		if _, err := s.Compile(context.Background(), "smoke", CompileRequest{Patterns: smokePatterns}); err != nil {
			b.Fatal(err)
		}
		return s
	}
	run := func(b *testing.B, s *Server, inputs []string) {
		b.SetBytes(concurrent * payload)
		for i := 0; i < b.N; i++ {
			// Spawn the 10k clients outside the timed region and release
			// them together: the measurement is the server draining 10k
			// concurrent requests, not the runtime creating goroutines.
			b.StopTimer()
			start := make(chan struct{})
			var ready, done sync.WaitGroup
			ready.Add(concurrent)
			done.Add(concurrent)
			for _, in := range inputs {
				go func() {
					defer done.Done()
					ready.Done()
					<-start
					if _, err := s.Match(context.Background(), MatchRequest{Ruleset: "smoke", Input: in}); err != nil {
						b.Error(err)
					}
				}()
			}
			ready.Wait()
			b.StartTimer()
			close(start)
			done.Wait()
		}
	}
	b.Run("per-request", func(b *testing.B) { run(b, mk(false), same) })
	b.Run("batched", func(b *testing.B) { run(b, mk(true), same) })
	b.Run("per-request/distinct", func(b *testing.B) { run(b, mk(false), distinct) })
	b.Run("batched/distinct", func(b *testing.B) { run(b, mk(true), distinct) })
}
