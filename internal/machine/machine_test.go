package machine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/spaceopt"
)

// mustRun is RunContext on a context that cannot be canceled, where the
// error is always nil.
func mustRun(m *Machine, input []byte) *Result {
	res, err := m.RunContext(context.Background(), input)
	if err != nil {
		panic(err)
	}
	return res
}

func buildMachine(t *testing.T, n *nfa.NFA, kind arch.DesignKind) *Machine {
	t.Helper()
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(kind), Seed: 1, AllowChainedG4: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matchKey normalizes matches for comparison with the flat reference
// simulator (order within a cycle differs; state identity preserved).
func machineKeys(ms []Match) [][3]int64 {
	out := make([][3]int64, len(ms))
	for i, m := range ms {
		out[i] = [3]int64{m.Offset, int64(m.Code), int64(m.State)}
	}
	sort.Slice(out, func(a, b int) bool {
		for k := 0; k < 3; k++ {
			if out[a][k] != out[b][k] {
				return out[a][k] < out[b][k]
			}
		}
		return false
	})
	return out
}

func refKeys(ms []nfa.Match) [][3]int64 {
	out := make([][3]int64, len(ms))
	for i, m := range ms {
		out[i] = [3]int64{int64(m.Offset), int64(m.Code), int64(m.State)}
	}
	sort.Slice(out, func(a, b int) bool {
		for k := 0; k < 3; k++ {
			if out[a][k] != out[b][k] {
				return out[a][k] < out[b][k]
			}
		}
		return false
	})
	return out
}

func assertEquivalent(t *testing.T, n *nfa.NFA, m *Machine, input []byte, label string) {
	t.Helper()
	want := refKeys(nfa.RunAll(n, input))
	m.Reset()
	res := mustRun(m, input)
	got := machineKeys(res.Matches)
	if len(got) != len(want) {
		t.Fatalf("%s: machine found %d matches, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
	if res.MatchCount != int64(len(want)) {
		t.Fatalf("%s: MatchCount %d, want %d", label, res.MatchCount, len(want))
	}
}

func TestMachineMatchesReferenceSmall(t *testing.T) {
	pats := []string{"bat", "bar", "bart", "ar", "at", "art", "car", "cat", "cart"}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := buildMachine(t, n, arch.PerfOpt)
	for _, in := range []string{"bart", "the cat took a cart to bartow", "xxxxxx", ""} {
		assertEquivalent(t, n, m, []byte(in), fmt.Sprintf("input %q", in))
	}
}

func TestMachineMatchesReferenceAcrossPartitions(t *testing.T) {
	// A 1500-state chain forces multi-partition mapping with G-switch
	// edges; equivalence must hold across the crossings.
	a := nfa.New()
	prev := a.AddState(nfa.State{Class: bitvec.ClassOf('a'), Start: nfa.AllInput})
	for i := 1; i < 1500; i++ {
		cur := a.AddState(nfa.State{Class: bitvec.ClassOf('a')})
		a.AddEdge(prev, cur)
		prev = cur
	}
	a.States[prev].Report = true
	a.States[prev].ReportCode = 5

	for _, kind := range []arch.DesignKind{arch.PerfOpt, arch.SpaceOpt} {
		m := buildMachine(t, a, kind)
		in := make([]byte, 2000)
		for i := range in {
			in[i] = 'a'
		}
		assertEquivalent(t, a, m, in, kind.String())
		// The chain reports from offset 1499 onward, each cycle.
		m.Reset()
		res := mustRun(m, in)
		if res.MatchCount != 2000-1499 {
			t.Errorf("%v: matches = %d, want %d", kind, res.MatchCount, 2000-1499)
		}
	}
}

func TestMachineRandomizedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	pieces := []string{"ab", "a+b", "[abc]{2}", "c.d", "x.*y", "(ab|ba)c", "q{2,4}", "[^a]z"}
	for trial := 0; trial < 25; trial++ {
		var pats []string
		for p := 0; p < 2+r.Intn(6); p++ {
			pat := pieces[r.Intn(len(pieces))] + pieces[r.Intn(len(pieces))]
			pats = append(pats, pat)
		}
		n, err := regexc.CompileSet(pats, regexc.Options{})
		if err != nil {
			continue
		}
		kind := arch.PerfOpt
		if trial%2 == 1 {
			kind = arch.SpaceOpt
		}
		m := buildMachine(t, n, kind)
		in := make([]byte, 300)
		for i := range in {
			in[i] = byte("abcdxyzq"[r.Intn(8)])
		}
		assertEquivalent(t, n, m, in, fmt.Sprintf("trial %d %v %v", trial, kind, pats))
	}
}

func TestMachineSpaceOptimizedEquivalence(t *testing.T) {
	// Full CA_S flow: compile → prefix/suffix merge → map → simulate.
	var pats []string
	for i := 0; i < 60; i++ {
		pats = append(pats, fmt.Sprintf("common%02dhead", i))
	}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := spaceopt.Optimize(n, spaceopt.Options{})
	m := buildMachine(t, merged.NFA, arch.SpaceOpt)
	r := rand.New(rand.NewSource(4))
	in := make([]byte, 4000)
	for i := range in {
		in[i] = byte(' ' + r.Intn(90))
	}
	copy(in[100:], "common07head")
	copy(in[2000:], "common59head")
	// Compare merged machine against the ORIGINAL NFA's (offset, code) set.
	wantSet := map[[2]int64]bool{}
	for _, mm := range nfa.RunAll(n, in) {
		wantSet[[2]int64{int64(mm.Offset), int64(mm.Code)}] = true
	}
	res := mustRun(m, in)
	gotSet := map[[2]int64]bool{}
	for _, mm := range res.Matches {
		gotSet[[2]int64{mm.Offset, int64(mm.Code)}] = true
	}
	if len(gotSet) != len(wantSet) {
		t.Fatalf("got %d distinct matches, want %d", len(gotSet), len(wantSet))
	}
	for k := range wantSet {
		if !gotSet[k] {
			t.Fatalf("missing match %v", k)
		}
	}
	if len(wantSet) < 2 {
		t.Fatal("test should produce at least the two planted matches")
	}
}

func TestActivityStats(t *testing.T) {
	// Anchored pattern: only start-of-data states enabled at cycle 0; on a
	// non-matching stream everything goes quiet → active partitions drop
	// to 0.
	n, err := regexc.CompileSet([]string{"^abc"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := buildMachine(t, n, arch.PerfOpt)
	res := mustRun(m, []byte("zzzzzzzzzz"))
	if res.Activity.Cycles != 10 {
		t.Fatalf("cycles = %d", res.Activity.Cycles)
	}
	// Cycle 0: 1 enabled state; afterwards nothing.
	if res.Activity.SumActiveStates != 1 {
		t.Errorf("SumActiveStates = %d, want 1", res.Activity.SumActiveStates)
	}
	if res.Activity.SumActivePartitions != 1 {
		t.Errorf("SumActivePartitions = %d, want 1", res.Activity.SumActivePartitions)
	}
	if got := res.Activity.AvgActiveStates(); got != 0.1 {
		t.Errorf("AvgActiveStates = %f, want 0.1", got)
	}
}

func TestActivityAlwaysStartsStayActive(t *testing.T) {
	n, err := regexc.CompileSet([]string{"abc"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := buildMachine(t, n, arch.PerfOpt)
	res := mustRun(m, []byte("zzzzzzzzzz"))
	// The all-input 'a' state is enabled every cycle.
	if res.Activity.SumActiveStates != 10 {
		t.Errorf("SumActiveStates = %d, want 10", res.Activity.SumActiveStates)
	}
	if res.Activity.MaxActivePartitions != 1 {
		t.Errorf("MaxActivePartitions = %d, want 1", res.Activity.MaxActivePartitions)
	}
}

func TestG1CrossingStats(t *testing.T) {
	// Chain spanning partitions: on an all-'a' stream, the cross-partition
	// wires toggle every cycle once the frontier passes them.
	a := nfa.New()
	prev := a.AddState(nfa.State{Class: bitvec.ClassOf('a'), Start: nfa.AllInput})
	for i := 1; i < 600; i++ {
		cur := a.AddState(nfa.State{Class: bitvec.ClassOf('a')})
		a.AddEdge(prev, cur)
		prev = cur
	}
	m := buildMachine(t, a, arch.PerfOpt)
	in := make([]byte, 1000)
	for i := range in {
		in[i] = 'a'
	}
	res := mustRun(m, in)
	if res.Activity.SumG1Crossings == 0 {
		t.Error("expected G1 crossings on a multi-partition chain")
	}
	if res.Activity.SumG4Crossings != 0 {
		t.Error("CA_P must have zero G4 crossings")
	}
	act := res.Activity.AvgActivity()
	if act.ActivePartitions <= 0 || act.G1Crossings <= 0 {
		t.Errorf("AvgActivity = %+v", act)
	}
	// Energy model consumes the activity without blowing up.
	e := arch.NewDesign(arch.PerfOpt).SymbolEnergyPJ(act)
	if e <= 0 {
		t.Errorf("energy = %f", e)
	}
}

func TestOutputBufferInterrupts(t *testing.T) {
	// A pattern matching every symbol fills the 64-entry buffer quickly.
	n, err := regexc.CompileSet([]string{"."}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := buildMachine(t, n, arch.PerfOpt)
	in := make([]byte, 1000)
	res := mustRun(m, in)
	if res.MatchCount != 1000 {
		t.Fatalf("matches = %d, want 1000", res.MatchCount)
	}
	if want := int64(1000 / OutputBufferEntries); res.OutputBufferInterrupts != want {
		t.Errorf("interrupts = %d, want %d", res.OutputBufferInterrupts, want)
	}
}

func TestFIFORefills(t *testing.T) {
	n, _ := regexc.CompileSet([]string{"x"}, regexc.Options{})
	m := buildMachine(t, n, arch.PerfOpt)
	res := mustRun(m, make([]byte, 130))
	if want := int64(arch.CeilDiv(130, 64)); res.FIFORefills != want {
		t.Errorf("refills = %d, want %d", res.FIFORefills, want)
	}
}

func TestRunContinuesStream(t *testing.T) {
	n, _ := regexc.CompileSet([]string{"ab"}, regexc.Options{})
	m := buildMachine(t, n, arch.PerfOpt)
	mustRun(m, []byte("a"))
	res := mustRun(m, []byte("b")) // match spans the two Run calls
	if res.MatchCount != 1 {
		t.Errorf("split-stream match count = %d, want 1", res.MatchCount)
	}
	if m.Pos() != 2 {
		t.Errorf("Pos = %d, want 2", m.Pos())
	}
}

func BenchmarkMachineSnortLike(b *testing.B) {
	var pats []string
	for i := 0; i < 200; i++ {
		pats = append(pats, fmt.Sprintf("attack%03d[a-f0-9]{4}", i))
	}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(pl, Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	in := make([]byte, 1<<16)
	for i := range in {
		in[i] = byte(r.Intn(256))
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		mustRun(m, in)
	}
}
