package nfa

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cacheautomaton/internal/bitvec"
)

// paperExample builds the working example from paper Figure 1: an automaton
// accepting {bat, bar, bart, ar, at, art, car, cat, cart} anywhere in the
// input, in ANML (homogeneous) form.
func paperExample() (*NFA, map[string]StateID) {
	n := New()
	ids := map[string]StateID{}
	add := func(name string, sym byte, start StartType, report bool, code int32) StateID {
		id := n.AddState(State{
			Class:      bitvec.ClassOf(sym),
			Start:      start,
			Report:     report,
			ReportCode: code,
		})
		ids[name] = id
		return id
	}
	b0 := add("b0", 'b', AllInput, false, 0) // b(a[rt])
	c0 := add("c0", 'c', AllInput, false, 0) // c(a[rt])
	a0 := add("a0", 'a', AllInput, false, 0) // bare a[rt]
	a1 := add("a1", 'a', NoStart, false, 0)  // a after b/c
	r1 := add("r1", 'r', NoStart, true, 1)   // {b,c,ε}ar
	t1 := add("t1", 't', NoStart, true, 2)   // {b,c,ε}at
	t2 := add("t2", 't', NoStart, true, 3)   // {b,c,ε}art
	n.AddEdge(b0, a1)
	n.AddEdge(c0, a1)
	n.AddEdge(a0, r1)
	n.AddEdge(a0, t1)
	n.AddEdge(a1, r1)
	n.AddEdge(a1, t1)
	n.AddEdge(r1, t2)
	return n, ids
}

func TestPaperExampleMatches(t *testing.T) {
	n, _ := paperExample()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		input string
		codes []int32 // expected report codes in order
	}{
		{"bat", []int32{2}},
		{"bar", []int32{1}},
		{"bart", []int32{1, 3}},
		{"ar", []int32{1}},
		{"at", []int32{2}},
		{"art", []int32{1, 3}},
		{"car", []int32{1}},
		{"cat", []int32{2}},
		{"cart", []int32{1, 3}},
		{"xyz", nil},
		{"ba", nil},
		{"xxbatxx", []int32{2}},
		{"batbat", []int32{2, 2}},
		{"barat", []int32{1, 2}}, // "bar" reports at r, then "at" reports at t
	}
	for _, tc := range cases {
		got := RunAll(n, []byte(tc.input))
		var codes []int32
		for _, m := range got {
			codes = append(codes, m.Code)
		}
		if len(codes) != len(tc.codes) {
			t.Errorf("input %q: got codes %v, want %v", tc.input, codes, tc.codes)
			continue
		}
		for i := range codes {
			if codes[i] != tc.codes[i] {
				t.Errorf("input %q: got codes %v, want %v", tc.input, codes, tc.codes)
				break
			}
		}
	}
}

func TestMatchOffsets(t *testing.T) {
	n, _ := paperExample()
	ms := RunAll(n, []byte("xxbatxx"))
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0].Offset != 4 { // the 't' of bat is at offset 4
		t.Errorf("match offset = %d, want 4", ms[0].Offset)
	}
}

func TestStartOfDataVsAllInput(t *testing.T) {
	// /^ab/ with start-of-data vs /ab/ with all-input.
	build := func(st StartType) *NFA {
		n := New()
		a := n.AddState(State{Class: bitvec.ClassOf('a'), Start: st})
		b := n.AddState(State{Class: bitvec.ClassOf('b'), Report: true, ReportCode: 9})
		n.AddEdge(a, b)
		return n
	}
	anchored := build(StartOfData)
	floating := build(AllInput)
	if got := len(RunAll(anchored, []byte("abab"))); got != 1 {
		t.Errorf("anchored: %d matches, want 1", got)
	}
	if got := len(RunAll(floating, []byte("abab"))); got != 2 {
		t.Errorf("floating: %d matches, want 2", got)
	}
	if got := len(RunAll(anchored, []byte("xab"))); got != 0 {
		t.Errorf("anchored with prefix: %d matches, want 0", got)
	}
}

func TestSimulatorResetAndActiveCount(t *testing.T) {
	n, _ := paperExample()
	s := NewSimulator(n)
	if got := s.ActiveCount(); got != 3 {
		t.Fatalf("initial ActiveCount = %d, want 3 (the all-input starts)", got)
	}
	s.Step('b')
	s.Step('a')
	ms := s.Step('t')
	if len(ms) != 1 || ms[0].Code != 2 {
		t.Fatalf("unexpected matches %v", ms)
	}
	if s.Pos() != 3 {
		t.Fatalf("Pos = %d, want 3", s.Pos())
	}
	s.Reset()
	if s.Pos() != 0 || s.ActiveCount() != 3 {
		t.Fatal("Reset did not restore initial state")
	}
	// Same results after reset.
	ms2 := s.Run([]byte("bat"))
	if len(ms2) != 1 || ms2[0].Code != 2 {
		t.Fatalf("post-reset run wrong: %v", ms2)
	}
}

func TestValidate(t *testing.T) {
	n := New()
	if err := n.Validate(); err != nil {
		t.Errorf("empty NFA should validate: %v", err)
	}
	// No start state.
	n.AddState(State{Class: bitvec.ClassOf('a')})
	if err := n.Validate(); err == nil {
		t.Error("NFA without start states should fail validation")
	}
	// Empty class.
	n2 := New()
	n2.AddState(State{Start: AllInput})
	if err := n2.Validate(); err == nil {
		t.Error("empty symbol class should fail validation")
	}
	// Out-of-range edge.
	n3 := New()
	id := n3.AddState(State{Class: bitvec.ClassOf('a'), Start: AllInput})
	n3.States[id].Out = append(n3.States[id].Out, 99)
	if err := n3.Validate(); err == nil {
		t.Error("out-of-range edge should fail validation")
	}
	// Duplicate edge (bypassing AddEdge).
	n4 := New()
	a := n4.AddState(State{Class: bitvec.ClassOf('a'), Start: AllInput})
	b := n4.AddState(State{Class: bitvec.ClassOf('b')})
	n4.States[a].Out = []StateID{b, b}
	if err := n4.Validate(); err == nil {
		t.Error("duplicate edge should fail validation")
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	n := New()
	a := n.AddState(State{Class: bitvec.ClassOf('a'), Start: AllInput})
	b := n.AddState(State{Class: bitvec.ClassOf('b')})
	n.AddEdge(a, b)
	n.AddEdge(a, b)
	if len(n.States[a].Out) != 1 {
		t.Fatalf("AddEdge should deduplicate, got %v", n.States[a].Out)
	}
}

func TestUnionDisjoint(t *testing.T) {
	a, _ := paperExample()
	b, _ := paperExample()
	na := a.NumStates()
	off := a.Union(b)
	if off != StateID(na) {
		t.Fatalf("offset = %d, want %d", off, na)
	}
	if a.NumStates() != 2*na {
		t.Fatalf("states = %d, want %d", a.NumStates(), 2*na)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Union duplicates the matches.
	ms := RunAll(a, []byte("bat"))
	if len(ms) != 2 {
		t.Fatalf("union should double matches, got %d", len(ms))
	}
	comps, _ := a.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("union should have 2 CCs, got %d", len(comps))
	}
}

func TestUnionDoesNotAliasEdges(t *testing.T) {
	a, _ := paperExample()
	b, _ := paperExample()
	a.Union(b)
	a.AddEdge(StateID(a.NumStates()-1), 0)
	if len(b.States[b.NumStates()-1].Out) != 0 {
		t.Fatal("Union must deep-copy Out slices")
	}
}

// TestUnionMany: one Union of three parts is three Unions of one, and the
// shared edge slab it cuts every Out from does not leak between parts.
func TestUnionMany(t *testing.T) {
	// ring gives every state an edge, so each copied Out borders the next
	// state's in the slab.
	ring := func(k int, code int32) *NFA {
		n := New()
		for i := 0; i < k; i++ {
			n.AddState(State{Class: bitvec.ClassOf(byte('a' + i)), Start: AllInput, Report: i == k-1, ReportCode: code})
		}
		for i := 0; i < k; i++ {
			n.AddEdge(StateID(i), StateID((i+1)%k))
		}
		return n
	}
	a, b, c := ring(3, 1), ring(4, 2), ring(5, 3)
	base := func() *NFA {
		n := New()
		n.AddState(State{Class: bitvec.ClassOf('z'), Start: AllInput})
		return n
	}

	seq := base()
	for _, p := range []*NFA{a, b, c} {
		seq.Union(p)
	}
	all := base()
	if off := all.Union(a, b, c); off != 1 {
		t.Fatalf("Union(a, b, c) = %d, want the first part's offset 1", off)
	}
	if !reflect.DeepEqual(all.States, seq.States) {
		t.Fatalf("Union(a, b, c) differs from three single-part unions:\n%v\n%v", all.States, seq.States)
	}

	lastA, firstB := StateID(a.NumStates()), StateID(a.NumStates()+1)
	wantB := slices.Clone(all.States[firstB].Out)
	all.AddEdge(lastA, 0)
	if got := all.States[firstB].Out; !slices.Equal(got, wantB) {
		t.Fatalf("AddEdge on part a's last state changed part b's first Out: %v, want %v", got, wantB)
	}
	if off := all.Union(); off != StateID(all.NumStates()) {
		t.Fatalf("Union() = %d, want %d", off, all.NumStates())
	}
}

func TestRemoveUnreachable(t *testing.T) {
	n := New()
	a := n.AddState(State{Class: bitvec.ClassOf('a'), Start: AllInput})
	b := n.AddState(State{Class: bitvec.ClassOf('b'), Report: true, ReportCode: 1})
	orphan := n.AddState(State{Class: bitvec.ClassOf('z')})
	dead := n.AddState(State{Class: bitvec.ClassOf('y')})
	n.AddEdge(a, b)
	n.AddEdge(orphan, dead) // unreachable chain
	pruned, remap := n.RemoveUnreachable()
	if pruned.NumStates() != 2 {
		t.Fatalf("pruned states = %d, want 2", pruned.NumStates())
	}
	if remap[a] == None || remap[b] == None {
		t.Fatal("reachable states must survive")
	}
	if remap[orphan] != None || remap[dead] != None {
		t.Fatal("unreachable states must be removed")
	}
	ms := RunAll(pruned, []byte("ab"))
	if len(ms) != 1 || ms[0].Code != 1 {
		t.Fatalf("pruned NFA semantics broken: %v", ms)
	}
}

func TestConnectedComponentsSortedAscending(t *testing.T) {
	n := New()
	// CC of size 1.
	n.AddState(State{Class: bitvec.ClassOf('x'), Start: AllInput})
	// CC of size 3.
	a := n.AddState(State{Class: bitvec.ClassOf('a'), Start: AllInput})
	b := n.AddState(State{Class: bitvec.ClassOf('b')})
	c := n.AddState(State{Class: bitvec.ClassOf('c')})
	n.AddEdge(a, b)
	n.AddEdge(b, c)
	// CC of size 2.
	d := n.AddState(State{Class: bitvec.ClassOf('d'), Start: AllInput})
	e := n.AddState(State{Class: bitvec.ClassOf('e')})
	n.AddEdge(d, e)

	comps, compOf := n.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("CCs = %d, want 3", len(comps))
	}
	sizes := []int{comps[0].Size(), comps[1].Size(), comps[2].Size()}
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 3 {
		t.Fatalf("sizes = %v, want ascending [1 2 3]", sizes)
	}
	if compOf[a] != compOf[b] || compOf[b] != compOf[c] {
		t.Error("a,b,c should share a component")
	}
	if compOf[a] == compOf[d] || compOf[0] == compOf[a] {
		t.Error("distinct components should have distinct indices")
	}
	for ci, comp := range comps {
		for _, s := range comp.States {
			if compOf[s] != ci {
				t.Fatalf("compOf[%d] = %d, want %d", s, compOf[s], ci)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	n, _ := paperExample()
	st := n.ComputeStats()
	if st.States != 7 {
		t.Errorf("States = %d, want 7", st.States)
	}
	if st.Edges != 7 {
		t.Errorf("Edges = %d, want 7", st.Edges)
	}
	if st.ConnectedComponents != 1 {
		t.Errorf("CCs = %d, want 1", st.ConnectedComponents)
	}
	if st.LargestCC != 7 {
		t.Errorf("LargestCC = %d, want 7", st.LargestCC)
	}
	if st.StartStates != 3 {
		t.Errorf("StartStates = %d, want 3", st.StartStates)
	}
	if st.ReportStates != 3 {
		t.Errorf("ReportStates = %d, want 3", st.ReportStates)
	}
	if st.MaxFanIn != 2 { // r1 and t1 each have 2 incoming
		t.Errorf("MaxFanIn = %d, want 2", st.MaxFanIn)
	}
	if st.MaxFanOut != 2 {
		t.Errorf("MaxFanOut = %d, want 2", st.MaxFanOut)
	}
}

func TestInEdges(t *testing.T) {
	n, ids := paperExample()
	in := n.InEdges()
	if len(in[ids["r1"]]) != 2 {
		t.Errorf("r1 in-degree = %d, want 2", len(in[ids["r1"]]))
	}
	if len(in[ids["b0"]]) != 0 {
		t.Errorf("b0 in-degree = %d, want 0", len(in[ids["b0"]]))
	}
}

func TestSubgraph(t *testing.T) {
	n, ids := paperExample()
	sub, orig := n.Subgraph([]StateID{ids["b0"], ids["a1"], ids["r1"]})
	if sub.NumStates() != 3 {
		t.Fatalf("sub states = %d, want 3", sub.NumStates())
	}
	// b0→a1 and a1→r1 survive; edges to t1/t2 dropped.
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	if orig[0] != ids["b0"] || orig[2] != ids["r1"] {
		t.Fatal("orig mapping wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	n, _ := paperExample()
	c := n.Clone()
	c.AddEdge(0, 0)
	if len(n.States[0].Out) == len(c.States[0].Out) {
		t.Fatal("Clone must not alias Out slices")
	}
}

func TestWriteDOT(t *testing.T) {
	n, _ := paperExample()
	var sb strings.Builder
	if err := n.WriteDOT(&sb, "example"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "doublecircle", "Mdiamond", "n0 -> n3"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestRandomNFAInvariants cross-checks CC decomposition against a reference
// BFS and validates that RemoveUnreachable preserves match behaviour.
func TestRandomNFAInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := randomNFA(r, 2+r.Intn(60))
		comps, compOf := n.ConnectedComponents()
		total := 0
		for _, c := range comps {
			total += c.Size()
		}
		if total != n.NumStates() {
			t.Fatalf("components don't partition states: %d vs %d", total, n.NumStates())
		}
		// Every edge stays within one component.
		for u := range n.States {
			for _, v := range n.States[u].Out {
				if compOf[u] != compOf[v] {
					t.Fatalf("edge %d→%d crosses components", u, v)
				}
			}
		}
		// Pruning preserves semantics.
		input := randomInput(r, 200)
		want := RunAll(n, input)
		pruned, _ := n.RemoveUnreachable()
		got := RunAll(pruned, input)
		if len(got) != len(want) {
			t.Fatalf("pruning changed match count: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Offset != want[i].Offset || got[i].Code != want[i].Code {
				t.Fatalf("pruning changed match %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func randomNFA(r *rand.Rand, n int) *NFA {
	a := New()
	for i := 0; i < n; i++ {
		st := State{Class: bitvec.ClassRange(byte('a'+r.Intn(4)), byte('a'+4+r.Intn(4)))}
		switch r.Intn(5) {
		case 0:
			st.Start = AllInput
		case 1:
			st.Start = StartOfData
		}
		if r.Intn(4) == 0 {
			st.Report = true
			st.ReportCode = int32(r.Intn(10))
		}
		a.AddState(st)
	}
	if len(a.StartStates()) == 0 {
		a.States[0].Start = AllInput
	}
	for i := 0; i < n*2; i++ {
		a.AddEdge(StateID(r.Intn(n)), StateID(r.Intn(n)))
	}
	return a
}

func randomInput(r *rand.Rand, n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte('a' + r.Intn(10))
	}
	return in
}
