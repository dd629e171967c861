package mapper

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/telemetry"
	"cacheautomaton/internal/workload"
)

func perfCfg() Config { return Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1} }
func spaceCfg() Config {
	return Config{Design: arch.NewDesign(arch.SpaceOpt), Seed: 1, AllowChainedG4: true}
}

func mustMap(t *testing.T, n *nfa.NFA, cfg Config) *Placement {
	t.Helper()
	pl, err := Map(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Verify(); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestMapSmallRuleSet(t *testing.T) {
	n, err := regexc.CompileSet([]string{"cat", "dog", "fish"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := mustMap(t, n, perfCfg())
	if pl.NumPartitions() != 1 {
		t.Errorf("partitions = %d, want 1 (10 states fit one partition)", pl.NumPartitions())
	}
	if got := pl.UtilizationMB(); got != 8.0/1024 {
		t.Errorf("utilization = %f MB, want 8KB", got)
	}
	if len(pl.Cross) != 0 {
		t.Errorf("small CCs should have no cross edges, got %d", len(pl.Cross))
	}
	st := pl.ComputeStats()
	if st.LocalEdges != n.NumEdges() {
		t.Errorf("local edges = %d, want %d", st.LocalEdges, n.NumEdges())
	}
}

func TestGreedyPackingDensity(t *testing.T) {
	// 100 components of 50 states each: 5 per partition → 20 partitions.
	var pats []string
	for i := 0; i < 100; i++ {
		pats = append(pats, fmt.Sprintf("k%02d%s", i, strings.Repeat("x", 47)))
	}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumStates() != 5000 {
		t.Fatalf("states = %d, want 5000", n.NumStates())
	}
	pl := mustMap(t, n, perfCfg())
	if pl.NumPartitions() != 20 {
		t.Errorf("partitions = %d, want 20 (5×50 per partition)", pl.NumPartitions())
	}
	st := pl.ComputeStats()
	if st.AvgFill < 0.97 {
		t.Errorf("avg fill = %.2f, want ≈0.98", st.AvgFill)
	}
}

// chainNFA builds one connected chain of n states (a{n} pattern shape).
func chainNFA(n int) *nfa.NFA {
	a := nfa.New()
	prev := a.AddState(nfa.State{Class: bitvec.ClassOf('a'), Start: nfa.AllInput})
	for i := 1; i < n; i++ {
		cur := a.AddState(nfa.State{Class: bitvec.ClassOf('a')})
		a.AddEdge(prev, cur)
		prev = cur
	}
	a.States[prev].Report = true
	return a
}

func TestMapLargeChainPerf(t *testing.T) {
	n := chainNFA(1000)
	pl := mustMap(t, n, perfCfg())
	if got := pl.NumPartitions(); got != arch.CeilDiv(1000, arch.PartitionSTEs) {
		t.Errorf("partitions = %d, want 4 (peel split packs nearly full)", got)
	}
	// CA_P: everything in one way.
	way := pl.Partitions[0].Way
	for i := range pl.Partitions {
		if pl.Partitions[i].Way != way {
			t.Fatalf("CA_P component split across ways %d and %d", way, pl.Partitions[i].Way)
		}
	}
	st := pl.ComputeStats()
	// A chain cut k ways has k-1 crossing edges, all G1.
	if st.G1Edges != pl.NumPartitions()-1 {
		t.Errorf("G1 edges = %d, want %d", st.G1Edges, pl.NumPartitions()-1)
	}
	if st.G4Edges != 0 || st.ChainedEdges != 0 {
		t.Error("CA_P must not use G4")
	}
	if st.MaxOutSignals > 16 || st.MaxInSignals > 16 {
		t.Errorf("budget exceeded: out %d in %d", st.MaxOutSignals, st.MaxInSignals)
	}
}

func TestMapHugeChainSpace(t *testing.T) {
	// 10000 states: ~40 partitions over ≥3 ways in CA_S.
	n := chainNFA(10000)
	pl := mustMap(t, n, spaceCfg())
	if got := pl.NumPartitions(); got < 40 || got > 55 {
		t.Errorf("partitions = %d, want ≈40-44 (peel split packs nearly full)", got)
	}
	if pl.WaysUsed() < 3 {
		t.Errorf("ways = %d, want ≥3", pl.WaysUsed())
	}
	st := pl.ComputeStats()
	if st.MaxOutSignals > 16 {
		t.Errorf("out signals %d exceed budget", st.MaxOutSignals)
	}
	total := st.G1Edges + st.G4Edges + st.ChainedEdges
	// A chain split k ways has ≥ k-1 crossings; non-contiguous parts add a
	// few more.
	if total < pl.NumPartitions()-1 || total > pl.NumPartitions()+8 {
		t.Errorf("crossing edges = %d, want ≈%d", total, pl.NumPartitions()-1)
	}
}

func TestMapPerfRejectsOversizedComponent(t *testing.T) {
	// CA_P confines a component to one way: 8×256 = 2048 states max.
	n := chainNFA(3000)
	_, err := Map(n, perfCfg())
	if err == nil {
		t.Fatal("CA_P should reject a 3000-state component")
	}
	if !strings.Contains(err.Error(), "CA_P") && !strings.Contains(err.Error(), "budget") {
		t.Errorf("unexpected error: %v", err)
	}
	// The same component maps fine in CA_S.
	mustMap(t, n, spaceCfg())
}

func TestMapHubComponent(t *testing.T) {
	// A hub driving 300 chains of 3: high fan-out from one state. The hub
	// counts as ONE outgoing signal per destination partition, so budgets
	// hold.
	a := nfa.New()
	hub := a.AddState(nfa.State{Class: bitvec.ClassOf('h'), Start: nfa.AllInput})
	for i := 0; i < 300; i++ {
		s1 := a.AddState(nfa.State{Class: bitvec.ClassOf('x')})
		s2 := a.AddState(nfa.State{Class: bitvec.ClassOf('y'), Report: true})
		a.AddEdge(hub, s1)
		a.AddEdge(s1, s2)
	}
	pl := mustMap(t, a, spaceCfg())
	st := pl.ComputeStats()
	if st.MaxOutSignals > 16 {
		t.Errorf("hub out signals = %d, want ≤16 (distinct sources, not edges)", st.MaxOutSignals)
	}
	if st.MaxInSignals > 16 {
		t.Errorf("in signals = %d", st.MaxInSignals)
	}
}

func TestMapDenseBipartiteFailsGracefully(t *testing.T) {
	// 600-state dense bipartite component: every cut has far more than 16
	// distinct crossing sources, so mapping must fail with a clear error
	// rather than loop forever.
	r := rand.New(rand.NewSource(5))
	a := nfa.New()
	var left, right []nfa.StateID
	for i := 0; i < 300; i++ {
		left = append(left, a.AddState(nfa.State{Class: bitvec.ClassOf('l'), Start: nfa.AllInput}))
	}
	for i := 0; i < 300; i++ {
		right = append(right, a.AddState(nfa.State{Class: bitvec.ClassOf('r'), Report: true}))
	}
	for _, l := range left {
		for j := 0; j < 30; j++ {
			a.AddEdge(l, right[r.Intn(len(right))])
			a.AddEdge(right[r.Intn(len(right))], l)
		}
	}
	_, err := Map(a, spaceCfg())
	if err == nil {
		t.Fatal("dense bipartite component should exceed switch budgets")
	}
	if !strings.Contains(err.Error(), "budget") && !strings.Contains(err.Error(), "signals") {
		t.Errorf("error should mention budgets: %v", err)
	}
}

func TestMapMixedSizes(t *testing.T) {
	// Big component + many small ones: small partitions backfill way holes.
	n := chainNFA(2000)
	small, err := regexc.CompileSet([]string{"alpha", "beta", "gamma", "delta"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Union(small)
	pl := mustMap(t, n, spaceCfg())
	st := pl.ComputeStats()
	// Peel splitting + small-component backfill approach the packing bound.
	wantParts := arch.CeilDiv(2000+19, arch.PartitionSTEs)
	if st.Partitions < wantParts || st.Partitions > wantParts+2 {
		t.Errorf("partitions = %d, want ≈%d", st.Partitions, wantParts)
	}
}

func TestMapDeterminism(t *testing.T) {
	n := chainNFA(1500)
	p1 := mustMap(t, n, spaceCfg())
	p2 := mustMap(t, n, spaceCfg())
	if p1.NumPartitions() != p2.NumPartitions() {
		t.Fatal("partition counts differ across runs")
	}
	for s := range p1.PartitionOf {
		if p1.PartitionOf[s] != p2.PartitionOf[s] || p1.SlotOf[s] != p2.SlotOf[s] {
			t.Fatal("same seed should give identical placement")
		}
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := Map(nfa.New(), Config{}); err == nil {
		t.Error("nil design should error")
	}
	bad := nfa.New()
	bad.AddState(nfa.State{}) // empty class, no start
	if _, err := Map(bad, perfCfg()); err == nil {
		t.Error("invalid NFA should error")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	n, _ := regexc.CompileSet([]string{"hello"}, regexc.Options{})
	pl := mustMap(t, n, perfCfg())
	// Corrupt a slot.
	pl.Partitions[0].Slots[0], pl.Partitions[0].Slots[1] = pl.Partitions[0].Slots[1], pl.Partitions[0].Slots[0]
	if err := pl.Verify(); err == nil {
		t.Error("Verify should catch slot corruption")
	}
}

func TestVerifyCatchesMissingCrossEdge(t *testing.T) {
	n := chainNFA(600)
	pl := mustMap(t, n, spaceCfg())
	if len(pl.Cross) == 0 {
		t.Skip("no cross edges to remove")
	}
	ce := pl.Cross[0]
	pl.Cross = pl.Cross[1:]
	if err := pl.Verify(); err == nil {
		t.Error("Verify should catch an unprogrammed cross edge")
	}
	// Programmed backwards, the edge is one the chain does not have.
	ce.Src, ce.Dst = ce.Dst, ce.Src
	ce.SrcPartition, ce.DstPartition = ce.DstPartition, ce.SrcPartition
	ce.SrcSlot, ce.DstSlot = ce.DstSlot, ce.SrcSlot
	pl.Cross = append(pl.Cross, ce)
	if err := pl.Verify(); err == nil || !strings.Contains(err.Error(), "not an NFA edge") {
		t.Errorf("Verify = %v, want a cross edge that is not an NFA edge", err)
	}
}

// relocate moves state s of a mapped placement into the first free slot of
// partition to.
func relocate(pl *Placement, s nfa.StateID, to int) {
	from := &pl.Partitions[pl.PartitionOf[s]]
	from.Slots[pl.SlotOf[s]] = nfa.None
	from.Used--
	p := &pl.Partitions[to]
	for slot, x := range p.Slots {
		if x == nfa.None {
			p.Slots[slot] = s
			p.Used++
			pl.PartitionOf[s], pl.SlotOf[s] = int32(to), int32(slot)
			return
		}
	}
	panic("relocate: partition full")
}

// TestVerifyCatchesOverBudget breaks exactly one of a partition's four
// switch budgets (§2.4) in a mapped CA_S placement and expects Verify to
// name it. Seventeen two-state rules pack into one partition and twenty
// 240-state chains into one partition each, which fills way 0 and spills
// into way 1. Moving one end of budget+1 rules to two partitions on the
// far side — of the same way for G1, of another way for G4 — gives the
// rules' partition budget+1 distinct signals out (targets moved) or in
// (sources moved), while each far partition stays within its own budget.
// ComputeStats must report the same count as the worst partition's.
func TestVerifyCatchesOverBudget(t *testing.T) {
	n := nfa.New()
	for i := 0; i < 17; i++ {
		n.Union(chainNFA(2)) // rule i is states 2i → 2i+1
	}
	for i := 0; i < 20; i++ {
		n.Union(chainNFA(240))
	}
	d := arch.NewDesign(arch.SpaceOpt)
	for _, tc := range []struct {
		name        string
		g4, sources bool
	}{
		{"G1-out", false, false},
		{"G1-in", false, true},
		{"G4-out", true, false},
		{"G4-in", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustMap(t, n, spaceCfg())
			home := int(pl.PartitionOf[0])
			level, limit, dir := "G1", d.G1SignalsPerPartition, "out"
			if tc.g4 {
				level, limit = "G4", d.G4SignalsPerPartition
			}
			if tc.sources {
				dir = "in"
			}
			var far []int
			for p := range pl.Partitions {
				otherWay := pl.Partitions[p].Way != pl.Partitions[home].Way
				if p != home && otherWay == tc.g4 && pl.Partitions[p].Used+limit/2+1 <= arch.PartitionSTEs && len(far) < 2 {
					far = append(far, p)
				}
			}
			if len(far) < 2 {
				t.Fatalf("found %d far partitions with room, want 2", len(far))
			}
			for i := 0; i <= limit; i++ {
				s := nfa.StateID(2 * i)
				if !tc.sources {
					s++
				}
				relocate(pl, s, far[i%2])
			}
			pl.DeriveCross()
			err := pl.Verify()
			want := fmt.Sprintf("%s %d", dir, limit+1)
			if err == nil || !strings.Contains(err.Error(), level+" budget") || !strings.Contains(err.Error(), want) {
				t.Fatalf("Verify = %v, want a %s budget violation naming %q", err, level, want)
			}
			st := pl.ComputeStats()
			worst := st.MaxOutSignals
			if tc.sources {
				worst = st.MaxInSignals
			}
			if worst != limit+1 {
				t.Errorf("ComputeStats reports %d signals %s at worst, want %d", worst, dir, limit+1)
			}
		})
	}
}

// TestRepairMovesStates maps registry Hamming@0.3 (seed 2) on CA_S, whose
// large components only fit their switch budgets after repair has moved
// states between the parts of a split.
func TestRepairMovesStates(t *testing.T) {
	n, err := workload.ByName("Hamming").Build(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewReqTrace("test")
	cfg := spaceCfg()
	cfg.Seed, cfg.Trace = 2, tr
	if _, _, err := MapOptimized(n, cfg); err != nil {
		t.Fatal(err)
	}
	if st := tr.Report().Stage("map.large"); st == nil || st.Attr("repair_moves") == 0 {
		t.Fatalf("map.large = %+v, want repair_moves > 0", st)
	}
}

// TestBackoffStagesEndInsideTheirRung maps registry Levenshtein@0.4
// (seed 1) on CA_S: its full merge breaks the §2.4 budget inside
// map.large, and the unmerged rung maps. Every map.* stage must end
// inside the backoff.* rung that started it, the failed rung's map.large
// must still carry its split retries, the trace must finish with no open
// stage, and its report must not change after Finish.
func TestBackoffStagesEndInsideTheirRung(t *testing.T) {
	n, err := workload.ByName("Levenshtein").Build(1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewReqTrace("test")
	cfg := spaceCfg()
	cfg.Trace = tr
	if _, level, err := MapOptimized(n, cfg); err != nil || level != NoMerge {
		t.Fatalf("level = %v, err = %v; want the full merge to fail and no-merge to map", level, err)
	}
	r := tr.Done(nil)
	var rung *telemetry.StageReport
	failed := 0
	for i := range r.Stages {
		st := &r.Stages[i]
		switch {
		case strings.HasPrefix(st.Name, "backoff."):
			rung = st
		case strings.HasPrefix(st.Name, "map."):
			if rung == nil || st.StartMS+st.DurationMS > rung.StartMS+rung.DurationMS {
				t.Fatalf("%s [+%.3f, %.3fms] outlasts its rung %+v", st.Name, st.StartMS, st.DurationMS, rung)
			}
			if st.Name == "map.large" && rung.Attr("mapped") == 0 {
				failed++
				if st.Attr("split_retries") == 0 {
					t.Errorf("the failed %s rung's map.large has no split retries: %+v", rung.Name, st)
				}
			}
		}
	}
	if failed == 0 {
		t.Fatalf("no rung failed to map:\n%s", r)
	}
	for _, note := range r.Notes {
		t.Errorf("note %s=%s on a finished compile", note.Key, note.Value)
	}
	if again := tr.Report(); !reflect.DeepEqual(r, again) {
		t.Errorf("a finished report changed:\n%s\n%s", r, again)
	}
}

// TestConsolidateMergesCrossingPartitions maps registry SPM@0.1 (seed 1)
// on CA_S and looks for a partition that cross edges of two components
// touch. A split places each part of a component in a partition of its
// own and small components have no cross edges, so only consolidation
// merging two partitions that both carry signals makes one.
func TestConsolidateMergesCrossingPartitions(t *testing.T) {
	n, err := workload.ByName("SPM").Build(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := MapOptimized(n, spaceCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, comp := pl.NFA.ConnectedComponents()
	touched := make([]map[int]bool, len(pl.Partitions))
	for i := range touched {
		touched[i] = map[int]bool{}
	}
	for _, ce := range pl.Cross {
		touched[ce.SrcPartition][comp[ce.Src]] = true
		touched[ce.DstPartition][comp[ce.Src]] = true
	}
	merged := 0
	for _, cs := range touched {
		if len(cs) > 1 {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("no partition carries the signals of two components: consolidation merged nothing that crosses")
	}
}

func TestChainedG4Disallowed(t *testing.T) {
	// >64 partitions (16.4k+ states) in one component spans G4 groups.
	n := chainNFA(17000)
	cfg := spaceCfg()
	cfg.AllowChainedG4 = false
	if _, err := Map(n, cfg); err == nil {
		t.Error("component spanning G4 groups should fail when chaining disabled")
	}
	cfg.AllowChainedG4 = true
	pl := mustMap(t, n, cfg)
	if pl.ComputeStats().ChainedEdges == 0 {
		t.Error("expected chained edges for a 17000-state component")
	}
}

func BenchmarkMap20kStates(b *testing.B) {
	var pats []string
	for i := 0; i < 500; i++ {
		pats = append(pats, fmt.Sprintf("rule%03d[a-f]{8}tail%d", i, i%7))
	}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlacementWriteDOT(t *testing.T) {
	n := chainNFA(600)
	pl := mustMap(t, n, spaceCfg())
	var sb strings.Builder
	if err := pl.WriteDOT(&sb, "chain"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "way 0", "p0 ", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}
