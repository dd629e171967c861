package cacheautomaton

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cacheautomaton/internal/machine"
)

// feed is FeedContext on a context that cannot be canceled, so an error
// is a bug: it fails the test (Errorf, safe off the test goroutine).
func feed(t testing.TB, s *Stream, chunk []byte) []Match {
	t.Helper()
	ms, err := s.FeedContext(context.Background(), chunk)
	if err != nil {
		t.Errorf("FeedContext: %v", err)
	}
	return ms
}

func TestCompileRegexAndRun(t *testing.T) {
	a, err := CompileRegex([]string{"cat", "dog.*food"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matches, stats, err := a.RunContext(context.Background(), []byte("the cat ate dog brand food"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v, want cat + dog.*food", matches)
	}
	if matches[0].Pattern != 0 || matches[0].Offset != 6 {
		t.Errorf("first match = %+v, want pattern 0 at offset 6", matches[0])
	}
	if matches[1].Pattern != 1 {
		t.Errorf("second match = %+v, want pattern 1", matches[1])
	}
	if stats.Cycles != 26 || stats.Matches != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.EnergyPJPerSymbol <= 0 || stats.AvgPowerW <= 0 || stats.ModeledSeconds <= 0 {
		t.Errorf("hardware stats not populated: %+v", stats)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	a, err := CompileRegex([]string{"abab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ms, _, err := a.RunContext(context.Background(), []byte("xababab"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 {
			t.Fatalf("run %d: matches = %v", i, ms)
		}
	}
}

func TestDesigns(t *testing.T) {
	pats := []string{"^prefix[0-9]{3}", "shared-tail-one", "shared-tail-two"}
	perf, err := CompileRegex(pats, Options{Design: Performance})
	if err != nil {
		t.Fatal(err)
	}
	space, err := CompileRegex(pats, Options{Design: Space})
	if err != nil {
		t.Fatal(err)
	}
	if perf.FrequencyGHz() != 2.0 || space.FrequencyGHz() != 1.2 {
		t.Errorf("frequencies = %v, %v", perf.FrequencyGHz(), space.FrequencyGHz())
	}
	if perf.ThroughputGbps() != 16 {
		t.Errorf("CA_P throughput = %v", perf.ThroughputGbps())
	}
	if space.States() >= perf.States() {
		t.Errorf("Space design should merge states: %d vs %d", space.States(), perf.States())
	}
	in := []byte("prefix123 and shared-tail-two here") // ^-anchored rule needs offset 0
	mp, _, _ := perf.RunContext(context.Background(), in)
	msp, _, _ := space.RunContext(context.Background(), in)
	if len(mp) != 2 || len(msp) != 2 {
		t.Fatalf("both designs should find 2 matches: %v vs %v", mp, msp)
	}
	for i := range mp {
		if mp[i] != msp[i] {
			t.Errorf("designs disagree: %v vs %v", mp[i], msp[i])
		}
	}
}

func TestDesignString(t *testing.T) {
	if Performance.String() != "CA_P" || Space.String() != "CA_S" {
		t.Error("Design strings wrong")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileRegex([]string{"(unclosed"}, Options{}); err == nil {
		t.Error("bad regex should error")
	}
	if _, err := CompileRegex([]string{"a*"}, Options{}); err == nil {
		t.Error("nullable pattern should error")
	}
	if _, err := CompileANML(strings.NewReader("not xml"), Options{}); err == nil {
		t.Error("bad ANML should error")
	}
}

func TestANMLRoundTripThroughFacade(t *testing.T) {
	a, err := CompileRegex([]string{"hello", "wor[lk]d"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteANML(&buf, "export"); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	b, err := CompileANML(&buf, Options{})
	if err != nil {
		t.Fatalf("re-import failed: %v", err)
	}
	// The read's span says how much it read, for its ns/byte.
	if st := b.CompileReport().Stage("anml.read"); st == nil || st.Attr("bytes") != int64(size) || st.Attr("states") != int64(b.States()) {
		t.Errorf("anml.read = %+v, want bytes=%d states=%d", st, size, b.States())
	}
	in := []byte("hello workd")
	m1, _, _ := a.RunContext(context.Background(), in)
	m2, _, _ := b.RunContext(context.Background(), in)
	if len(m1) != len(m2) || len(m1) != 2 {
		t.Fatalf("round trip changed matches: %v vs %v", m1, m2)
	}
}

func TestCaseInsensitive(t *testing.T) {
	a, err := CompileRegex([]string{"Virus"}, Options{CaseInsensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, _ := a.RunContext(context.Background(), []byte("VIRUS virus ViRuS"))
	if len(ms) != 3 {
		t.Fatalf("matches = %v, want 3", ms)
	}
}

func TestCountLongStream(t *testing.T) {
	a, err := CompileRegex([]string{"needle"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.Repeat([]byte("haystack needle "), 1000)
	st, err := a.Count(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 1000 {
		t.Errorf("matches = %d, want 1000", st.Matches)
	}
	if st.Cycles != int64(len(in)) {
		t.Errorf("cycles = %d, want %d", st.Cycles, len(in))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st, err := a.Count(ctx, in); !errors.Is(err, context.Canceled) || st != nil {
		t.Errorf("canceled Count = %v, %v; want nil, context.Canceled", st, err)
	}
	if ls := a.LeaseStats(); ls.Gets != ls.Puts {
		t.Errorf("Count leaked a lease: %+v", ls)
	}
}

// TestCountRetainsNoMatches: Count keeps no match records, and the
// machine it hands back to the pool pins none of them (collected, the
// 262 144 matches here would be 4 MB of records).
func TestCountRetainsNoMatches(t *testing.T) {
	a, err := CompileRegex([]string{"a"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.Repeat([]byte("a"), 4*machine.ContextCheckBytes)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	st, err := a.Count(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != int64(len(in)) {
		t.Fatalf("matches = %d, want %d", st.Matches, len(in))
	}
	if grew := heap() - before; grew > 256<<10 {
		t.Errorf("heap grew %d bytes across Count; the pooled machine is pinning match records", grew)
	}
	runtime.KeepAlive(a)
}

func TestInfoMethods(t *testing.T) {
	a, err := CompileRegex([]string{"abcdef"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.States() != 6 {
		t.Errorf("States = %d", a.States())
	}
	if a.Partitions() != 1 {
		t.Errorf("Partitions = %d", a.Partitions())
	}
	if got := a.CacheUsageMB(); got != 8.0/1024 {
		t.Errorf("CacheUsageMB = %v", got)
	}
	var dot bytes.Buffer
	if err := a.WriteDOT(&dot, "g"); err != nil || !strings.Contains(dot.String(), "digraph") {
		t.Error("WriteDOT failed")
	}
}

func TestStreamFeedAndSuspendResume(t *testing.T) {
	a, err := CompileRegex([]string{"handoff"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.StreamContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := feed(t, s, []byte("...hand")); len(got) != 0 {
		t.Fatalf("premature matches: %v", got)
	}
	// Suspend mid-match, resume in a "new process".
	var state bytes.Buffer
	if err := s.Suspend(&state); err != nil {
		t.Fatal(err)
	}
	s2, err := a.ResumeStreamContext(context.Background(), &state)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Pos() != 7 {
		t.Fatalf("resumed Pos = %d, want 7", s2.Pos())
	}
	got := feed(t, s2, []byte("off..."))
	if len(got) != 1 || got[0].Offset != 9 || got[0].Pattern != 0 {
		t.Fatalf("resumed stream matches = %v, want one at offset 9", got)
	}
}

// TestResumeStreamRestoreFailureReturnsMachine is the regression test
// for a lease leak: ResumeStream leased a machine before Restore, and a
// Restore failure returned without Close, abandoning the checkout (Gets
// without Puts). The snapshot here decodes fine but carries the wrong
// partition count, so only Restore fails.
func TestResumeStreamRestoreFailureReturnsMachine(t *testing.T) {
	a, err := CompileRegex([]string{"abc"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := &machine.Snapshot{Enabled: make([][4]uint64, a.Partitions()+1)}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	before := a.pool.Stats()
	if _, err := a.ResumeStreamContext(context.Background(), bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ResumeStream accepted a snapshot with the wrong partition count")
	}
	after := a.pool.Stats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("failed resume leaked a machine: %d gets vs %d puts", gets, puts)
	}
}

func TestStreamIncrementalDelivery(t *testing.T) {
	a, err := CompileRegex([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := a.StreamContext(context.Background())
	total := 0
	for _, chunk := range []string{"ab", "ab", "xxab"} {
		total += len(feed(t, s, []byte(chunk)))
	}
	if total != 3 {
		t.Fatalf("delivered %d matches, want 3", total)
	}
	// No duplicates on empty feed.
	if got := feed(t, s, nil); len(got) != 0 {
		t.Fatalf("empty feed returned %v", got)
	}
}

func TestSystemHints(t *testing.T) {
	a, err := CompileRegex([]string{"pattern[0-9]{2}"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakPowerHintW() <= 0 {
		t.Error("peak power hint should be positive")
	}
	if a.ConfigurationTimeMS() <= 0 {
		t.Error("configuration time should be positive")
	}
	// One partition (8KB) replicates ~2560 times into a 20MB LLC.
	if got := a.ReplicationFactor(20); got != 2560 {
		t.Errorf("ReplicationFactor(20MB) = %d, want 2560", got)
	}
	if a.ReplicationFactor(0) != 0 {
		t.Error("zero budget should give zero replicas")
	}
}

func TestCompileSnortRulesFacade(t *testing.T) {
	rules := `alert tcp any any (msg:"probe"; content:"/cgi-bin/phf"; sid:42;)
alert tcp any any (pcre:"/exploit[0-9]+z/i"; sid:43;)`
	a, err := CompileSnortRules(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, _ := a.RunContext(context.Background(), []byte("GET /cgi-bin/phf and EXPLOIT99z"))
	sids := map[int]bool{}
	for _, m := range ms {
		sids[m.Pattern] = true
	}
	if !sids[42] || !sids[43] {
		t.Fatalf("sids = %v, want 42 and 43", sids)
	}
	if _, err := CompileSnortRules("garbage", Options{}); err == nil {
		t.Error("bad rules should error")
	}
}

func TestCompileClamAVFacade(t *testing.T) {
	a, names, err := CompileClamAVDatabase("Sig.A:414243\nSig.B:58??5a", Options{Design: Space})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "Sig.A" {
		t.Fatalf("names = %v", names)
	}
	ms, _, _ := a.RunContext(context.Background(), []byte("..ABC..XqZ.."))
	if len(ms) != 2 {
		t.Fatalf("matches = %v, want both signatures", ms)
	}
}

func TestStreamFeedBoundedRetention(t *testing.T) {
	a, err := CompileRegex([]string{"a"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.StreamContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("a"), 50)
	for i := 0; i < 20; i++ {
		if got := feed(t, s, chunk); len(got) != len(chunk) {
			t.Fatalf("feed %d delivered %d matches, want %d", i, len(got), len(chunk))
		}
		// Regression: delivered matches must be drained from the machine,
		// not retained for the lifetime of the stream.
		if kept := len(s.m.DrainMatches()); kept != 0 {
			t.Fatalf("feed %d: stream machine retains %d delivered matches", i, kept)
		}
	}
	if s.Pos() != 20*50 {
		t.Errorf("Pos = %d", s.Pos())
	}
}

func TestCountReusesMachine(t *testing.T) {
	a, err := CompileRegex([]string{"needle"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("a needle in a haystack")
	st1, err := a.Count(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := a.Count(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if built := a.pool.Stats().Built; built != 1 {
		t.Errorf("two Counts left %d machines built; want the one compile pooled", built)
	}
	if st1.Matches != 1 || *st2 != *st1 {
		t.Errorf("Count on a recycled machine diverged: %+v vs %+v", st1, st2)
	}
	// Count and Run must agree.
	_, rst, err := a.RunContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if *rst != *st1 {
		t.Errorf("Count = %+v disagrees with Run = %+v", st1, rst)
	}
}

// TestOnePoolServesRunsAndShards: a sequential run and a 2-shard run on a
// fresh automaton lease from the same free list, so two machines exist
// afterwards (the one compile built plus the second shard's), all idle.
func TestOnePoolServesRunsAndShards(t *testing.T) {
	a, err := CompileRegex([]string{"needle"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.Repeat([]byte("haystack needle "), 2048)
	want, _, err := a.RunContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RunParallelContext(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded run found %d matches, sequential %d", len(got), len(want))
	}
	if ps := a.pool.Stats(); ps.Built != 2 || ps.Idle != 2 || ps.Gets != ps.Puts {
		t.Errorf("pool after a run and a 2-shard run = %+v; want Built 2, Idle 2, Gets == Puts", ps)
	}
}

func TestCompileReport(t *testing.T) {
	a, err := CompileRegex([]string{"cat", "dog.*food"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := a.CompileReport()
	if r == nil || r.Op != "compile-regex" || r.Outcome != "ok" || r.ID == "" {
		t.Fatalf("report = %+v", r)
	}
	for _, want := range []string{"regexc.parse", "regexc.glushkov", "map.components", "map.pack", "map.cross", "machine.build"} {
		if r.Stage(want) == nil {
			t.Fatalf("report missing stage %q (have %v)", want, r.Stages)
		}
	}
	if got := r.Stage("regexc.parse").Attr("patterns"); got != 2 {
		t.Errorf("patterns = %d, want 2", got)
	}
	if got := r.Stage("regexc.glushkov").Attr("states"); got != int64(a.States()) {
		t.Errorf("glushkov states = %d, want %d", got, a.States())
	}
	if got := r.Stage("machine.build").Attr("partitions"); got != int64(a.Partitions()) {
		t.Errorf("machine.build partitions = %d, want %d", got, a.Partitions())
	}
	// c, a, t, d, o, g, f, and the rest, which only . accepts.
	if got, want := r.Stage("machine.build").Attr("classes"), symbolClasses(a); got != want || want != 8 {
		t.Errorf("machine.build classes = %d, want %d (8)", got, want)
	}
	// Stages are in execution order on the compile's own clock, inside its
	// total.
	for i, st := range r.Stages {
		if st.StartMS < 0 || st.StartMS+st.DurationMS > r.DurationMS+1e-6 || (i > 0 && st.StartMS < r.Stages[i-1].StartMS) {
			t.Errorf("stage %d %+v outside [0, %vms] or out of order", i, st, r.DurationMS)
		}
	}
	out := r.String()
	if !strings.Contains(out, "compile-regex") || !strings.Contains(out, "regexc.parse") || !strings.Contains(out, "patterns=2") {
		t.Errorf("formatted report:\n%s", out)
	}
	// The CA_S back-off ladder shows up in space-design reports.
	as, err := CompileRegex([]string{"cat", "category"}, Options{Design: Space})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range as.CompileReport().Stages {
		if strings.HasPrefix(st.Name, "backoff.") {
			found = true
		}
	}
	if !found {
		t.Errorf("space-design report has no backoff stages: %+v", as.CompileReport().Stages)
	}
	// Load records its own stages the same way.
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	la, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lr := la.CompileReport(); lr.Op != "load-caformat" || lr.Stage("caformat.decode").Attr("partitions") != int64(a.Partitions()) || lr.Stage("machine.build") == nil {
		t.Errorf("load report = %+v", lr)
	} else if got := lr.Stage("machine.build").Attr("classes"); got != symbolClasses(la) {
		t.Errorf("load report: machine.build classes = %d, want %d", got, symbolClasses(la))
	}
}

// symbolClasses counts a's symbol classes the slow way: the distinct sets
// of states that accept one symbol.
func symbolClasses(a *Automaton) int64 {
	sets := map[string]bool{}
	for sym := 0; sym < 256; sym++ {
		var set []byte
		for s := range a.nfa.States {
			if a.nfa.States[s].Class.Has(byte(sym)) {
				set = binary.AppendUvarint(set, uint64(s))
			}
		}
		sets[string(set)] = true
	}
	return int64(len(sets))
}

// recObserver keeps every summary an automaton's machines report.
type recObserver struct{ runs []RunSummary }

func (o *recObserver) ObserveRun(r RunSummary) { o.runs = append(o.runs, r) }

// take returns the summaries recorded since the last take.
func (o *recObserver) take() []RunSummary {
	runs := o.runs
	o.runs = nil
	return runs
}

// statsOfRuns adds summaries back up into a machine.Result and models it
// the way the automaton models a run's own Result.
func statsOfRuns(a *Automaton, runs ...RunSummary) Stats {
	var sum machine.Result
	for _, r := range runs {
		sum.MatchCount += r.Matches
		sum.Activity.Cycles += r.Symbols
		sum.Activity.SumDynamicStates += r.SumDynamicStates
		sum.Activity.SumActivePartitions += r.SumActivePartitions
		sum.Activity.SumG1Crossings += r.SumG1Crossings
		sum.Activity.SumG4Crossings += r.SumG4Crossings
	}
	return *a.statsFrom(&sum)
}

// TestRunObserverWiring: every way of running an automaton reports
// summaries that add up to the Stats it returned — one per one-shot run,
// per sharded run, per batch input, per stream feed and per Count.
func TestRunObserverWiring(t *testing.T) {
	ctx := context.Background()
	obs := &recObserver{}
	// "cat" alone fits one word; the 70-state literal beside it takes the
	// one-partition loop.
	for _, patterns := range [][]string{{"cat"}, {"cat", strings.Repeat("z", 70)}} {
		a, err := CompileRegex(patterns, Options{RunObserver: obs})
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, wantRuns int, want *Stats) {
			t.Helper()
			runs := obs.take()
			if len(runs) != wantRuns {
				t.Errorf("%d patterns, %s: %d summaries, want %d", len(patterns), what, len(runs), wantRuns)
			}
			if got := statsOfRuns(a, runs...); got != *want {
				t.Errorf("%d patterns, %s: summaries add up to %+v, run returned %+v", len(patterns), what, got, want)
			}
		}
		in := bytes.Repeat([]byte("the cat sat on the zzz mat. "), 1000)

		_, st, err := a.RunContext(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if st.Matches != 1000 {
			t.Fatalf("matches = %d, want 1000", st.Matches)
		}
		check("RunContext", 1, st)

		if machine.ShardsFor(2, len(in)) != 2 {
			t.Fatal("input too short to shard")
		}
		_, pst, err := a.RunParallelContext(ctx, in, 2)
		if err != nil {
			t.Fatal(err)
		}
		check("RunParallelContext", 1, pst)

		s, err := a.StreamContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		half := len(in)/2 + 1 // cuts a "cat" in two
		fed := len(feed(t, s, in[:half])) + len(feed(t, s, in[half:]))
		s.Close()
		if len(obs.runs) != 2 || obs.runs[0].Symbols != int64(half) || obs.runs[1].Symbols != int64(len(in)-half) {
			t.Errorf("%d patterns, stream feeds reported %+v", len(patterns), obs.runs)
		}
		if fed != 1000 {
			t.Errorf("stream delivered %d matches, want 1000", fed)
		}
		check("two stream feeds", 2, st)

		long := bytes.Repeat(in, 3) // more than one ContextCheckBytes sub-batch, one run
		cst, err := a.Count(ctx, long)
		if err != nil {
			t.Fatal(err)
		}
		check("Count", 1, cst)
	}
}

// TestNoContextBlindTwins keeps the execution surface at one entry point
// each: no exported X may sit beside an XContext, on the facade types, the
// machine types, or either package's top-level functions.
func TestNoContextBlindTwins(t *testing.T) {
	check := func(where string, names []string) {
		has := map[string]bool{}
		for _, n := range names {
			has[n] = true
		}
		for _, n := range names {
			if has[n+"Context"] {
				t.Errorf("%s: %s has a twin %sContext; keep only the ctx form", where, n, n)
			}
		}
	}
	for _, v := range []any{&Automaton{}, &Lease{}, &Stream{}, &machine.Machine{}, &machine.Pool{}} {
		typ := reflect.TypeOf(v)
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			names = append(names, typ.Method(i).Name)
		}
		check(typ.String(), names)
	}
	for _, dir := range []string{".", "internal/machine"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
		if len(names) == 0 {
			t.Fatalf("%s: found no exported functions", dir)
		}
		check(dir, names)
	}
}

// TestOneMachineConfiguration keeps the kernel at one configuration per
// automaton: machine.Options is the one field CollectMatches, nothing in
// the symbol loops or the report path reads any other option, and an
// Automaton owns one pool and no machine of its own.
func TestOneMachineConfiguration(t *testing.T) {
	if n := reflect.TypeOf(machine.Options{}).NumField(); n != 1 {
		t.Errorf("machine.Options has %d fields, want 1 (CollectMatches)", n)
	}
	pools := 0
	at := reflect.TypeOf(Automaton{})
	for i := 0; i < at.NumField(); i++ {
		switch at.Field(i).Type {
		case reflect.TypeOf(&machine.Pool{}):
			pools++
		case reflect.TypeOf(&machine.Machine{}), reflect.TypeOf(sync.Mutex{}):
			t.Errorf("Automaton.%s: machines come from the pool, and nothing needs a lock", at.Field(i).Name)
		}
	}
	if pools != 1 {
		t.Errorf("Automaton holds %d pools, want 1", pools)
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/machine", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	kernel := map[string]bool{"scan": false, "runBatchN": false, "runBatch1": false,
		"runBatchWord": false, "report": false}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, ok := kernel[fd.Name.Name]; !ok {
					continue
				}
				kernel[fd.Name.Name] = true
				// An opts selector is fine only as the X of .CollectMatches.
				allowed := map[ast.Node]bool{}
				ast.Inspect(fd, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if sel.Sel.Name == "CollectMatches" {
						allowed[sel.X] = true
					}
					if sel.Sel.Name == "opts" && !allowed[sel] {
						t.Errorf("%s reads an option other than CollectMatches", fd.Name.Name)
					}
					return true
				})
			}
		}
	}
	for name, found := range kernel {
		if !found {
			t.Errorf("internal/machine has no %s; update this test's list of kernel functions", name)
		}
	}
}
