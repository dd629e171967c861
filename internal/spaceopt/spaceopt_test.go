package spaceopt

import (
	"fmt"
	"math/rand"
	"testing"

	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

func matchSet(n *nfa.NFA, in []byte) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for _, m := range nfa.RunAll(n, in) {
		out[[2]int64{int64(m.Offset), int64(m.Code)}] = true
	}
	return out
}

func sameMatches(a, b map[[2]int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestPrefixMergeSharedPrefixes(t *testing.T) {
	// 100 patterns sharing the prefix "commonprefix": the prefix states
	// collapse to one chain.
	var pats []string
	for i := 0; i < 100; i++ {
		pats = append(pats, fmt.Sprintf("commonprefix%03d", i))
	}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := n.NumStates() // 100 × 15 = 1500
	res := Optimize(n, Options{PrefixOnly: true})
	after := res.NFA.NumStates()
	// Shared prefix "commonprefix" (12 states) collapses: expect
	// 12 + 100×3 = 312 states (suffix digits differ per pattern... the
	// first digit of each suffix differs, so: 12 shared + 100 distinct
	// 3-state tails, minus further sharing among equal digit prefixes).
	if after >= before/2 {
		t.Errorf("prefix merge: %d → %d states; expected >2× reduction", before, after)
	}
	// CC structure: all patterns now share prefix states → one CC.
	comps, _ := res.NFA.ConnectedComponents()
	if len(comps) != 1 {
		t.Errorf("CCs after merge = %d, want 1 (prefix fuses components)", len(comps))
	}
	// Language preserved.
	in := []byte("xxcommonprefix042yycommonprefix999")
	if !sameMatches(matchSet(n, in), matchSet(res.NFA, in)) {
		t.Error("prefix merge changed match semantics")
	}
}

func TestSuffixMergeSharedSuffixes(t *testing.T) {
	// All patterns share a report code (one logical rule with variants), so
	// the common-suffix chain — including the report state — can merge.
	n := nfa.New()
	for i := 0; i < 50; i++ {
		one, err := regexc.Compile(fmt.Sprintf("%02dcommonsuffix", i), 0, regexc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n.Union(one)
	}
	before := n.NumStates()
	full := Optimize(n, Options{})
	prefOnly := Optimize(n, Options{PrefixOnly: true})
	if full.NFA.NumStates() >= prefOnly.NFA.NumStates() {
		t.Errorf("suffix merging should reduce further: full=%d prefix-only=%d (before=%d)",
			full.NFA.NumStates(), prefOnly.NFA.NumStates(), before)
	}
	if full.SuffixMerged == 0 {
		t.Error("expected some suffix merges")
	}
	// Reports differ per pattern (distinct codes), so the final report
	// states cannot merge; the shared suffix chain before them can.
	in := []byte("zz07commonsuffix and 33commonsuffix")
	if !sameMatches(matchSet(n, in), matchSet(full.NFA, in)) {
		t.Error("suffix merge changed match semantics")
	}
}

func TestMergePreservesDistinctReportCodes(t *testing.T) {
	// Identical patterns with different report codes must NOT merge their
	// report states.
	a, _ := regexc.Compile("abc", 1, regexc.Options{})
	b, _ := regexc.Compile("abc", 2, regexc.Options{})
	n := nfa.New()
	n.Union(a)
	n.Union(b)
	res := Optimize(n, Options{})
	in := []byte("xabcx")
	got := matchSet(res.NFA, in)
	if len(got) != 2 {
		t.Fatalf("matches = %v, want both codes 1 and 2", got)
	}
	// But their prefix states (a, b) do merge: 6 → 4 states.
	if res.NFA.NumStates() != 4 {
		t.Errorf("states = %d, want 4 (shared 'ab' prefix + two report states)", res.NFA.NumStates())
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	pats := []string{"cat", "car", "cart", "dog", "dot"}
	n, _ := regexc.CompileSet(pats, regexc.Options{})
	r1 := Optimize(n, Options{})
	r2 := Optimize(r1.NFA, Options{})
	if r2.NFA.NumStates() != r1.NFA.NumStates() {
		t.Errorf("second optimize changed state count: %d → %d", r1.NFA.NumStates(), r2.NFA.NumStates())
	}
	if r2.PrefixMerged != 0 || r2.SuffixMerged != 0 {
		t.Errorf("second optimize merged states: %+v", r2)
	}
}

func TestRemapConsistency(t *testing.T) {
	pats := []string{"hello", "help", "held"}
	n, _ := regexc.CompileSet(pats, regexc.Options{})
	res := Optimize(n, Options{})
	if len(res.Remap) != n.NumStates() {
		t.Fatalf("remap length %d, want %d", len(res.Remap), n.NumStates())
	}
	for old, newID := range res.Remap {
		if newID < 0 || int(newID) >= res.NFA.NumStates() {
			t.Fatalf("remap[%d] = %d out of range", old, newID)
		}
		// Merged states keep the same class and start type.
		if n.States[old].Class != res.NFA.States[newID].Class {
			t.Errorf("state %d class changed through merge", old)
		}
		if n.States[old].Start != res.NFA.States[newID].Start {
			t.Errorf("state %d start type changed through merge", old)
		}
	}
}

func TestOptimizeDoesNotModifyInput(t *testing.T) {
	n, _ := regexc.CompileSet([]string{"abc", "abd"}, regexc.Options{})
	before := n.NumStates()
	snapshot := n.Clone()
	Optimize(n, Options{})
	if n.NumStates() != before {
		t.Fatal("Optimize modified its input")
	}
	for i := range n.States {
		if len(n.States[i].Out) != len(snapshot.States[i].Out) {
			t.Fatal("Optimize modified input edges")
		}
	}
}

func TestRandomizedLanguagePreservation(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	pieces := []string{"ab", "a+", "[ab]", "c", "(ab|ba)", "a{2,3}", "b?c", ".", "ca*"}
	for trial := 0; trial < 60; trial++ {
		var pats []string
		for p := 0; p < 3+r.Intn(5); p++ {
			var sb []byte
			for k := 0; k < 1+r.Intn(4); k++ {
				sb = append(sb, pieces[r.Intn(len(pieces))]...)
			}
			pats = append(pats, string(sb))
		}
		n, err := regexc.CompileSet(pats, regexc.Options{})
		if err != nil {
			continue // nullable combinations rejected
		}
		res := Optimize(n, Options{})
		if err := res.NFA.Validate(); err != nil {
			t.Fatalf("trial %d (%v): merged NFA invalid: %v", trial, pats, err)
		}
		in := make([]byte, 120)
		for i := range in {
			in[i] = byte('a' + r.Intn(3))
		}
		if !sameMatches(matchSet(n, in), matchSet(res.NFA, in)) {
			t.Fatalf("trial %d: patterns %v changed language after merge", trial, pats)
		}
		if res.NFA.NumStates() > n.NumStates() {
			t.Fatalf("trial %d: merge increased states", trial)
		}
	}
}

func TestTable1ShapeShift(t *testing.T) {
	// The paper's Table 1 signature of CA_S: fewer states, fewer CCs,
	// larger largest-CC. A rule set with heavy prefix sharing shows all
	// three.
	var pats []string
	for i := 0; i < 200; i++ {
		pats = append(pats, fmt.Sprintf("GET /api/v%d/resource%03d", i%3, i))
	}
	n, _ := regexc.CompileSet(pats, regexc.Options{})
	sBefore := n.ComputeStats()
	res := Optimize(n, Options{})
	sAfter := res.NFA.ComputeStats()
	if sAfter.States >= sBefore.States {
		t.Error("states should shrink")
	}
	if sAfter.ConnectedComponents >= sBefore.ConnectedComponents {
		t.Error("CC count should shrink")
	}
	if sAfter.LargestCC <= sBefore.LargestCC {
		t.Error("largest CC should grow")
	}
}

func BenchmarkOptimize5000States(b *testing.B) {
	var pats []string
	for i := 0; i < 250; i++ {
		pats = append(pats, fmt.Sprintf("filter/%02d/%04d/[a-f]+x", i%10, i))
	}
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(n, Options{})
	}
}
