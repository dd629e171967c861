package regexc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/telemetry"
)

// refEnds computes, via direct AST interpretation, the set of positions e
// such that node matches input[pos:e]. It is the ground truth the Glushkov
// construction is checked against.
func refEnds(n Node, in []byte, pos int) map[int]bool {
	switch v := n.(type) {
	case EmptyNode:
		return map[int]bool{pos: true}
	case *ClassNode:
		if pos < len(in) && v.Class.Has(in[pos]) {
			return map[int]bool{pos + 1: true}
		}
		return map[int]bool{}
	case *ConcatNode:
		cur := map[int]bool{pos: true}
		for _, s := range v.Subs {
			next := map[int]bool{}
			for p := range cur {
				for e := range refEnds(s, in, p) {
					next[e] = true
				}
			}
			cur = next
		}
		return cur
	case *AltNode:
		out := map[int]bool{}
		for _, s := range v.Subs {
			for e := range refEnds(s, in, pos) {
				out[e] = true
			}
		}
		return out
	case *StarNode:
		out := map[int]bool{pos: true}
		frontier := []int{pos}
		for len(frontier) > 0 {
			var next []int
			for _, p := range frontier {
				for e := range refEnds(v.Sub, in, p) {
					if !out[e] {
						out[e] = true
						next = append(next, e)
					}
				}
			}
			frontier = next
		}
		return out
	case *PlusNode:
		out := map[int]bool{}
		for e := range refEnds(v.Sub, in, pos) {
			for e2 := range refEnds(&StarNode{Sub: v.Sub}, in, e) {
				out[e2] = true
			}
		}
		return out
	case *QuestNode:
		out := map[int]bool{pos: true}
		for e := range refEnds(v.Sub, in, pos) {
			out[e] = true
		}
		return out
	default:
		panic("unknown node")
	}
}

// refMatchOffsets returns the set of input offsets at which a match of the
// pattern ends (the offset of the last matched symbol), considering every
// start offset for unanchored patterns and only offset 0 for anchored ones.
func refMatchOffsets(p *Parsed, in []byte) map[int]bool {
	out := map[int]bool{}
	starts := len(in)
	if p.Anchored {
		starts = 1
	}
	for s := 0; s < starts; s++ {
		for e := range refEnds(p.Root, in, s) {
			if e > s { // non-empty matches only
				out[e-1] = true
			}
		}
	}
	return out
}

func nfaMatchOffsets(a *nfa.NFA, in []byte) map[int]bool {
	out := map[int]bool{}
	for _, m := range nfa.RunAll(a, in) {
		out[m.Offset] = true
	}
	return out
}

func TestGlushkovAgainstReference(t *testing.T) {
	pats := []string{
		"abc", "a|b", "ab|cd", "a*bc", "a+b", "ab?c",
		"(ab)+", "(a|b)*abb", "a.c", "[ab]c", "[^a]b",
		"a{2,4}", "(ab|ba)*ab", "a(b|c)d", "x(yz)*w",
		"^abc", "^(a|b)c", "(aa|aab)*b",
	}
	inputs := []string{
		"", "a", "abc", "aabc", "abcabc", "aaab", "abab",
		"babbab", "xyzw", "xyyzw", "aabaab", "cacbcc",
		"aaaaaaab", "abba", "aabbaabb",
	}
	for _, pat := range pats {
		parsed := mustParse(t, pat, Options{})
		a, err := CompileParsed(parsed, 0)
		if err != nil {
			t.Fatalf("compile %q: %v", pat, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("compile %q produced invalid NFA: %v", pat, err)
		}
		for _, in := range inputs {
			want := refMatchOffsets(parsed, []byte(in))
			got := nfaMatchOffsets(a, []byte(in))
			if !sameOffsetSet(got, want) {
				t.Errorf("pattern %q input %q: offsets %v, want %v", pat, in, keys(got), keys(want))
			}
		}
	}
}

func TestGlushkovRandomizedAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 400; trial++ {
		ast := randomAST(r, 0)
		parsed := &Parsed{Root: ast, Anchored: r.Intn(2) == 0}
		a, err := CompileParsed(parsed, 0)
		if err != nil {
			continue // nullable patterns are rejected by design
		}
		in := make([]byte, r.Intn(24))
		for i := range in {
			in[i] = byte('a' + r.Intn(3))
		}
		want := refMatchOffsets(parsed, in)
		got := nfaMatchOffsets(a, in)
		if !sameOffsetSet(got, want) {
			t.Fatalf("trial %d pattern %s anchored=%v input %q:\n got %v\nwant %v",
				trial, Render(ast), parsed.Anchored, in, keys(got), keys(want))
		}
	}
}

func randomAST(r *rand.Rand, depth int) Node {
	if depth > 3 || r.Intn(3) == 0 {
		return randomLeaf(r)
	}
	switch r.Intn(6) {
	case 0:
		n := 2 + r.Intn(2)
		subs := make([]Node, n)
		for i := range subs {
			subs[i] = randomAST(r, depth+1)
		}
		return &ConcatNode{Subs: subs}
	case 1:
		n := 2 + r.Intn(2)
		subs := make([]Node, n)
		for i := range subs {
			subs[i] = randomAST(r, depth+1)
		}
		return &AltNode{Subs: subs}
	case 2:
		return &StarNode{Sub: randomAST(r, depth+1)}
	case 3:
		return &PlusNode{Sub: randomAST(r, depth+1)}
	case 4:
		return &QuestNode{Sub: randomAST(r, depth+1)}
	default:
		return randomLeaf(r)
	}
}

func randomLeaf(r *rand.Rand) Node {
	pat := string(rune('a' + r.Intn(3)))
	p, err := Parse(pat, Options{})
	if err != nil {
		panic(err)
	}
	return p.Root
}

func TestCompileRejectsNullable(t *testing.T) {
	for _, pat := range []string{"a*", "a?", "", "(a|)", "a{0,3}", "()*"} {
		if _, err := Compile(pat, 0, Options{}); err == nil {
			t.Errorf("Compile(%q) should reject nullable pattern", pat)
		}
	}
}

func TestCompileStateCountMatchesPositions(t *testing.T) {
	// Glushkov automaton has exactly one state per symbol position.
	cases := map[string]int{
		"abc":     3,
		"a|b":     2,
		"(ab)+cd": 4,
		"a{3}":    3,
		"a{2,4}":  4,
		"[a-z]x":  2,
		"a.b":     3,
	}
	for pat, want := range cases {
		a, err := Compile(pat, 0, Options{})
		if err != nil {
			t.Fatalf("compile %q: %v", pat, err)
		}
		if a.NumStates() != want {
			t.Errorf("%q: states = %d, want %d", pat, a.NumStates(), want)
		}
	}
}

func TestCompileAnchoredStartTypes(t *testing.T) {
	a, _ := Compile("^ab", 0, Options{})
	if a.States[0].Start != nfa.StartOfData {
		t.Error("anchored pattern should use start-of-data states")
	}
	b, _ := Compile("ab", 0, Options{})
	if b.States[0].Start != nfa.AllInput {
		t.Error("unanchored pattern should use all-input states")
	}
}

func TestCompileSet(t *testing.T) {
	a, err := CompileSet([]string{"cat", "dog", "bird"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() != 3+3+4 {
		t.Fatalf("states = %d, want 10", a.NumStates())
	}
	ms := nfa.RunAll(a, []byte("the cat saw a bird"))
	var codes []int32
	for _, m := range ms {
		codes = append(codes, m.Code)
	}
	if len(codes) != 2 || codes[0] != 0 || codes[1] != 2 {
		t.Fatalf("codes = %v, want [0 2]", codes)
	}
	comps, _ := a.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("CCs = %d, want 3", len(comps))
	}
	// Error propagation names the pattern.
	_, err = CompileSet([]string{"ok", "(bad"}, Options{})
	if err == nil || !strings.Contains(err.Error(), "pattern 1") {
		t.Errorf("CompileSet error should identify the pattern: %v", err)
	}
}

// TestCompileSetErrorEndsItsStage: a parse error ends regexc.parse, so
// the finished trace names no open stage and its report stays fixed.
func TestCompileSetErrorEndsItsStage(t *testing.T) {
	tr := telemetry.NewReqTrace("compile-regex")
	if _, err := CompileSet([]string{"a", "("}, Options{Trace: tr}); err == nil {
		t.Fatal(`CompileSet accepted "("`)
	}
	tr.Finish("error", "")
	r := tr.Report()
	for _, n := range r.Notes {
		t.Errorf("note %s=%s: a stage was left open", n.Key, n.Value)
	}
	time.Sleep(time.Millisecond)
	if again := tr.Report(); !reflect.DeepEqual(r, again) {
		t.Errorf("a finished report changed:\n%s\n%s", r, again)
	}
}

func TestCompileReportCodes(t *testing.T) {
	a, err := Compile("ab|cd", 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, st := range a.States {
		if !st.Report {
			continue
		}
		reports++
		if st.ReportCode != 7 {
			t.Errorf("report code = %d, want 7", st.ReportCode)
		}
	}
	if reports != 2 {
		t.Errorf("report states = %d, want 2", reports)
	}
}

func TestCompileDotStar(t *testing.T) {
	// The Dotstar-suite shape: A.*B
	a, err := Compile("ab.*cd", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"abcd", 1},
		{"abXXXcd", 1},
		{"abXXcdYYcd", 2}, // .* spans, reports at each cd
		{"acd", 0},
		{"ab", 0},
	} {
		if got := len(nfa.RunAll(a, []byte(tc.in))); got != tc.want {
			t.Errorf("ab.*cd on %q: %d matches, want %d", tc.in, got, tc.want)
		}
	}
}

func BenchmarkCompile1000Patterns(b *testing.B) {
	pats := make([]string, 1000)
	for i := range pats {
		pats[i] = fmt.Sprintf("pat%04d[a-f]{2}x+", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileSet(pats, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func sameOffsetSet(a, b map[int]bool) bool {
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

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
