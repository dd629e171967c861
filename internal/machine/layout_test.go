package machine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/workload"
)

// TestFlatRowLayoutMatchesClasses verifies the flattened SRAM programming:
// for every mapped state and every symbol, the bit in the row the
// symbol's class addresses equals the state's character-class membership
// — the 256×256 layout of the paper's two 4 KB arrays, read through
// classOf.
func TestFlatRowLayoutMatchesClasses(t *testing.T) {
	n, err := regexc.CompileSet([]string{"ab[c-f]x*", "[0-9]{3}", "q.*z", "."}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range pl.NFA.States {
		st := &pl.NFA.States[s]
		pi, slot := int(pl.PartitionOf[s]), int(pl.SlotOf[s])
		p := &m.parts[pi]
		for sym := 0; sym < 256; sym++ {
			got := p.rows[m.classOf[sym]][slot>>6]&(1<<(slot&63)) != 0
			if want := st.Class.Has(byte(sym)); got != want {
				t.Fatalf("state %d (partition %d slot %d) symbol %#x: row bit %v, class %v",
					s, pi, slot, sym, got, want)
			}
		}
	}
}

// TestFIFORefillsChunkedMatchesWhole is the regression test for refill
// accounting: however the stream is chunked, each 64-byte cache line is
// counted once, so chunked and whole-input runs agree.
func TestFIFORefillsChunkedMatchesWhole(t *testing.T) {
	n, err := regexc.CompileSet([]string{"abc"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 1000)
	for i := range input {
		input[i] = byte(i)
	}
	whole, err := New(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(whole, input).FIFORefills
	if expect := int64((len(input) + 63) / 64); want != expect {
		t.Fatalf("whole-input refills = %d, want ceil(%d/64) = %d", want, len(input), expect)
	}
	for _, sizes := range [][]int{
		{1},          // byte at a time: every chunk shares lines with its neighbors
		{3, 7, 13},   // unaligned, line-straddling chunks
		{64},         // exactly line-aligned
		{100, 1, 63}, // mixed
		{500, 500},   // big unaligned halves
	} {
		m, err := New(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		for off, i := 0, 0; off < len(input); i++ {
			size := sizes[i%len(sizes)]
			if off+size > len(input) {
				size = len(input) - off
			}
			res = mustRun(m, input[off:off+size])
			off += size
		}
		if res.FIFORefills != want {
			t.Errorf("chunk sizes %v: refills = %d, whole-input = %d", sizes, res.FIFORefills, want)
		}
	}
}

// classOracle is a brute-force reading of n's alphabet: for every
// symbol, the set of states that accept it, spelt as a string.
func classOracle(n *nfa.NFA) [256]string {
	var sig [256]string
	for sym := range sig {
		b := make([]byte, (len(n.States)+7)/8)
		for s := range n.States {
			if n.States[s].Class.Has(byte(sym)) {
				b[s/8] |= 1 << (s % 8)
			}
		}
		sig[sym] = string(b)
	}
	return sig
}

// assertClassesExact holds m's classes to the oracle: two symbols share a
// class iff every state accepts both or neither, the ids are numbered by
// first symbol, and NumClasses counts them.
func assertClassesExact(t *testing.T, label string, m *Machine) {
	t.Helper()
	sig := classOracle(m.pl.NFA)
	for a := 0; a < 256; a++ {
		for b := a + 1; b < 256; b++ {
			if same := m.classOf[a] == m.classOf[b]; same != (sig[a] == sig[b]) {
				t.Fatalf("%s: symbols %#x and %#x share a class: %v; the states say %v", label, a, b, same, !same)
			}
		}
	}
	next := 0
	for sym, c := range m.classOf {
		if int(c) > next {
			t.Fatalf("%s: symbol %#x is in class %d before class %d is numbered", label, sym, c, next)
		}
		if int(c) == next {
			next++
		}
	}
	if m.NumClasses() != next {
		t.Fatalf("%s: NumClasses %d, classOf numbers %d", label, m.NumClasses(), next)
	}
}

// classEdgeSets are hand-built automata at the edges of the class
// refinement: every symbol its own class (the uint8 limit), a full class
// beside a narrow one and alone, overlapping ranges and random symbol
// sets.
func classEdgeSets() map[string]*nfa.NFA {
	sets := map[string]*nfa.NFA{}
	// 255 one-symbol states leave symbol 0xff a class of its own: 256.
	all := nfa.New()
	for sym := 0; sym < 255; sym++ {
		all.AddState(nfa.State{Class: bitvec.ClassOf(byte(sym)), Start: nfa.AllInput, Report: true})
	}
	sets["256 classes"] = all
	dot := nfa.New()
	d := dot.AddState(nfa.State{Class: bitvec.AllSymbols(), Start: nfa.AllInput})
	x := dot.AddState(nfa.State{Class: bitvec.ClassOf('x'), Report: true})
	dot.AddEdge(d, x)
	sets["a full . class"] = dot
	only := nfa.New()
	only.AddState(nfa.State{Class: bitvec.AllSymbols(), Start: nfa.AllInput, Report: true})
	sets["nothing but ."] = only
	ranges := nfa.New()
	for _, r := range [][2]byte{{'a', 'm'}, {'h', 'z'}, {'0', 'z'}, {'a', 'm'}, {0, 0xff}, {'m', 'm'}} {
		ranges.AddState(nfa.State{Class: bitvec.ClassRange(r[0], r[1]), Start: nfa.AllInput, Report: true})
	}
	sets["overlapping ranges"] = ranges
	rng := rand.New(rand.NewSource(5))
	random := nfa.New()
	for i := 0; i < 60; i++ {
		var c bitvec.Class
		for w := range c {
			c[w] = rng.Uint64() & rng.Uint64()
		}
		random.AddState(nfa.State{Class: c, Start: nfa.AllInput, Report: true})
	}
	sets["random symbol sets"] = random
	return sets
}

// TestAlphabetClassesExact holds New's symbol classes to a brute-force
// oracle on every registry benchmark at a small scale, on the rule sets
// the symbol loops are compared over, and on the refinement's edges.
func TestAlphabetClassesExact(t *testing.T) {
	design := arch.NewDesign(arch.PerfOpt)
	build := func(label string, n *nfa.NFA) *Machine {
		t.Helper()
		pl, err := mapper.Map(n, mapper.Config{Design: design, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m, err := New(pl, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return m
	}
	for _, spec := range workload.All() {
		n, err := spec.Build(1, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		assertClassesExact(t, spec.Name, build(spec.Name, n))
	}
	for _, row := range loopTable(t) {
		assertClassesExact(t, row.name, loopMachine(t, row))
	}
	for label, n := range classEdgeSets() {
		m := build(label, n)
		assertClassesExact(t, label, m)
		switch label {
		case "256 classes":
			if m.NumClasses() != 256 || m.classOf[0xff] != 255 {
				t.Fatalf("%s: NumClasses %d, symbol 0xff in class %d", label, m.NumClasses(), m.classOf[0xff])
			}
		case "nothing but .":
			if m.NumClasses() != 1 {
				t.Fatalf("%s: NumClasses %d, want 1", label, m.NumClasses())
			}
		}
	}
}

// literalShape is a set of distinct 25-symbol literals that maps to at
// least 200 partitions of one-symbol states: the shape of a large
// compiled rule set, where almost every state holds one symbol and few
// slots walk a local row.
func literalShape(t testing.TB) *mapper.Placement {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	const alnum = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	pats := make([]string, 2100)
	for i := range pats {
		b := []byte(fmt.Sprintf("%04d", i))
		for len(b) < 25 {
			b = append(b, alnum[rng.Intn(len(alnum))])
		}
		pats[i] = string(b)
	}
	pl := mappedRules(t, pats...)
	if len(pl.Partitions) < 200 {
		t.Fatalf("the literal shape maps to %d partitions, want ≥ 200", len(pl.Partitions))
	}
	return pl
}

// TestNewBytesPerPartition bounds what one New allocates on the literal
// shape to 4 KiB per partition, so the host keeps only what it programs:
// the symbol rows by class, the masks and the rank-indexed local rows and
// cross-points come to about 2.5 KiB a partition here. A 256-entry table
// by slot copied out of the placement would cross the bound: the state
// and report-code tables New once built (8 B a slot, 2 KiB a partition)
// read 4.62 KiB a partition.
func TestNewBytesPerPartition(t *testing.T) {
	pl := literalShape(t)
	if _, err := New(pl, Options{}); err != nil { // verifies pl once
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		if _, err := New(pl, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("New allocates %d bytes over %d partitions (%.2f KiB each)", least, len(pl.Partitions), float64(least)/float64(len(pl.Partitions))/1024)
	if limit := uint64(len(pl.Partitions)) * 4 << 10; least > limit {
		t.Fatalf("New allocates %d bytes over %d partitions; the bound is %d (4 KiB each)", least, len(pl.Partitions), limit)
	}
}

// BenchmarkMachineNew times and counts what New allocates on three
// shapes: a one-word machine (the ledger's scan-sparse set), Snort at
// scale 0.1 (scan-dense) and the literal shape of ≥ 200 partitions.
func BenchmarkMachineNew(b *testing.B) {
	snort, err := workload.ByName("Snort").Build(1, 0.1)
	shapes := []struct {
		name string
		pl   *mapper.Placement
	}{
		{"one-word", mappedRules(b, "needle[0-9]{4}", "other.*thing")},
		{"snort", mapped(b, snort, err)},
		{"literals", literalShape(b)},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			if _, err := New(sh.pl, Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(sh.pl, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
