package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/spaceopt"
	"cacheautomaton/internal/workload"
)

// raggedSizes cross every boundary that matters to a stream's
// accounting: empty, sub-line, a whole number of cache lines, and many
// lines plus a remainder.
var raggedSizes = []int{0, 17, 300, 1024, 4096, 3*4096 + 311, 64, 1}

// deadStreamInputs are streams over which an anchored-only automaton
// (^ab) goes quiet after a few symbols: never started, matched then dead,
// cut short while alive, and empty.
func deadStreamInputs() [][]byte {
	long := bytes.Repeat([]byte("z"), 2*4096+77)
	return [][]byte{long, append([]byte("ab"), long...), []byte("a"), nil}
}

// loopRow is one rule set and the streams the symbol loops are compared
// over. A row of patterns is one partition, and oneWord says which side
// of the 64-slot boundary it must land on; a row with a placement is many
// partitions.
type loopRow struct {
	name     string
	patterns []string
	inputs   [][]byte
	oneWord  bool
	pl       *mapper.Placement
}

// literal is a pattern of n states: n alphanumeric symbols.
func literal(n int) string {
	const alnum = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	return strings.Repeat(alnum, n/len(alnum)+1)[:n]
}

// loopTable is what TestKernelLoopsAgree sweeps and FuzzKernelLoopsAgree
// is seeded from.
func loopTable(t testing.TB) []loopRow {
	rng := rand.New(rand.NewSource(17))
	text := func(frags ...string) [][]byte {
		ins := [][]byte{randomText(rng, ContextCheckBytes+1000, frags)}
		for _, n := range raggedSizes {
			ins = append(ins, randomText(rng, n, frags))
		}
		return ins
	}
	ring := literal(64)
	rows := []loopRow{
		// bench's scan-sparse and serving rule sets.
		{"bench sparse", []string{"needle[0-9]{4}", "other.*thing"},
			text("needle1234", "needle12x", "other", "thing"), true, nil},
		{"bench small", []string{"needle[0-9]", "hay.{2}stack", "x[abc]+y"},
			text("needle7", "haynostack", "xaby", "xcccy", "need", "xq"), true, nil},
		// x.*yz pins a bit forever: streams stay live, with different
		// enabled vectors, to the end of their inputs.
		{"a bit that never clears", []string{"x.*yz", "begin.*end", "hay.{2}stack"},
			text("x", "yz", "begin", "end", "haynostack"), true, nil},
		{"anchored, partition dies", []string{"^ab"}, deadStreamInputs(), true, nil},
		{"a report every symbol", []string{"a"}, [][]byte{bytes.Repeat([]byte("a"), 200)}, true, nil},
		// Slot 63 loops back to slot 0: the one fan-out <<1 cannot carry.
		{"64-state ring", []string{"(" + ring + ")+"}, text(ring, ring+ring, ring[:63]), true, nil},
		// A dozen 12-symbol literals: one partition, three of its four words.
		{"a dozen literals", manyLiteralPatterns(12), text("common07head", "common11head", "common"), false, nil},
	}
	for n := 62; n <= 66; n++ {
		lit := literal(n)
		rows = append(rows, loopRow{fmt.Sprintf("literal of %d", n), []string{lit},
			text(lit, lit[:n-1], lit[1:]), n <= 64, nil})
	}
	// Forks in word 0 and a ring closing in word 1: a slot finds its
	// local row by a rank that counts the words below its own.
	ring100 := literal(100)
	rows = append(rows, loopRow{"local rows in two words", []string{"x(abc|abd|acd)+y", "(" + ring100 + ")+z"},
		text("xabcabdacdy", "xabdy", ring100+ring100+"z", ring100), false, nil})
	// Many partitions, where runBatchN and the memo in front of it are
	// the loops: the ledger's scan-dense rule set on a short input, and a
	// CA_S placement whose later partitions are entered over cross edges.
	snort := workload.ByName("Snort")
	sn, err := snort.Build(1, 0.1)
	rows = append(rows, loopRow{name: "registry Snort", inputs: [][]byte{snort.Input(1, 3000)}, pl: mapped(t, sn, err)})
	patterns, input := orderProbe(rng)
	pl := mappedSpace(t, patterns...)
	if len(pl.Cross) == 0 {
		t.Fatal("the CA_S order probe maps without a cross edge")
	}
	rows = append(rows, loopRow{name: "CA_S order probe", inputs: [][]byte{input, input[:len(input)/3]}, pl: pl})
	return rows
}

// mappedSpace places patterns as CA_S does: merged, then mapped for the
// space-optimized design with chained G4 hops allowed.
func mappedSpace(t testing.TB, patterns ...string) *mapper.Placement {
	t.Helper()
	n, err := regexc.CompileSet(patterns, regexc.Options{MaxRepeat: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(spaceopt.Optimize(n, spaceopt.Options{}).NFA,
		mapper.Config{Design: arch.NewDesign(arch.SpaceOpt), Seed: 1, AllowChainedG4: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// symbolLoops are the places the AND-row/OR-fan-out rule is written, by
// the machine shape New selects each for, and the memo in front of the
// general loop, which serves every shape. A loop is started per stream,
// so the memo's table lives across the chunks of one, as it does across
// the sub-batches of one run. Both memos are made here rather than by
// newMemo, so that no run-length gate hides them: "memo" never backs off,
// and "memo, backing off" has no learning allowance, which sends it back
// and forth between the table and the kernel.
var symbolLoops = []struct {
	name   string
	serves func(*Machine) bool
	start  func(*Machine) func([]byte)
}{
	{"runBatchN", everyShape, kernelLoop((*Machine).runBatchN)},
	{"memo", everyShape, func(m *Machine) func([]byte) { return m.memoFor(0, false).run }},
	{"memo, backing off", everyShape, func(m *Machine) func([]byte) { return m.memoFor(0, true).run }},
	{"runBatch1", func(m *Machine) bool { return len(m.parts) == 1 }, kernelLoop((*Machine).runBatch1)},
	{"runBatchWord", func(m *Machine) bool { return m.oneWord }, kernelLoop((*Machine).runBatchWord)},
}

func everyShape(*Machine) bool { return true }

func kernelLoop(loop func(*Machine, []byte)) func(*Machine) func([]byte) {
	return func(m *Machine) func([]byte) { return func(in []byte) { loop(m, in) } }
}

// loopMachine builds row's machine and holds it to the shape the row is
// in the table for.
func loopMachine(t testing.TB, row loopRow) *Machine {
	t.Helper()
	if row.pl != nil {
		m, err := New(row.pl, Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumPartitions() < 2 {
			t.Fatalf("%s: %d partitions; the table wants several", row.name, m.NumPartitions())
		}
		return m
	}
	m, _ := buildPool(t, row.patterns, 0)
	if m.NumPartitions() != 1 || m.oneWord != row.oneWord {
		t.Fatalf("%s: %d partitions, oneWord %v; the table wants 1 and %v",
			row.name, m.NumPartitions(), m.oneWord, row.oneWord)
	}
	return m
}

// loopOutcome is everything a scan leaves behind.
type loopOutcome struct {
	res  Result
	snap *Snapshot
	pos  int64
}

// driveLoop is scan with the loop named instead of dispatched: from
// Reset, input through a loop started by start in chunk-sized calls,
// then derive.
func driveLoop(m *Machine, start func(*Machine) func([]byte), input []byte, chunk int) loopOutcome {
	m.Reset()
	loop := start(m)
	for len(input) > 0 {
		n := min(chunk, len(input))
		loop(input[:n])
		input = input[n:]
	}
	m.derive(&m.res, m.basePos, m.baseBuf)
	return loopOutcome{m.res, m.Snapshot(), m.Pos()}
}

// assertLoopsAgree runs input through every loop m's shape admits, in
// each chunking, and holds each outcome to the general loop's over the
// whole input.
func assertLoopsAgree(t *testing.T, label string, m *Machine, input []byte, chunks []int) {
	t.Helper()
	want := driveLoop(m, symbolLoops[0].start, input, max(1, len(input)))
	for _, l := range symbolLoops {
		if !l.serves(m) {
			continue
		}
		for _, chunk := range chunks {
			got := driveLoop(m, l.start, input, chunk)
			at := fmt.Sprintf("%s, %d bytes, %s in chunks of %d", label, len(input), l.name, chunk)
			assertResultsEqual(t, at, &want.res, &got.res)
			if !reflect.DeepEqual(want.snap, got.snap) {
				t.Fatalf("%s: ends in %+v, the general loop in %+v", at, got.snap, want.snap)
			}
			if want.pos != got.pos {
				t.Fatalf("%s: Pos %d, the general loop's %d", at, got.pos, want.pos)
			}
		}
	}
}

// TestKernelLoopsAgree holds the symbol loops to one behaviour: one-word
// machines through all of them, wider one-partition machines through
// runBatch1, the general loop and the memo, many-partition machines
// through the general loop and the memo, each over every chunking —
// identical Result, Snapshot and Pos. Dispatch picks one loop per
// machine, and the memo's gates pick the kernel for some runs, so without
// this nothing would compare them.
func TestKernelLoopsAgree(t *testing.T) {
	for _, row := range loopTable(t) {
		t.Run(row.name, func(t *testing.T) {
			m := loopMachine(t, row)
			if row.name == "64-state ring" && m.parts[0].otherM[0]>>63 != 1 {
				t.Fatalf("slot 63 is not on the per-slot walk (otherM %#x)", m.parts[0].otherM[0])
			}
			for i, in := range row.inputs {
				assertLoopsAgree(t, fmt.Sprintf("input %d", i), m, in,
					[]int{1, 63, 1024, ContextCheckBytes, max(1, len(in))})
			}
		})
	}
}

// FuzzKernelLoopsAgree is the same comparison on inputs the table does
// not hold: every rule set of the table over the fuzzed input, in the
// fuzzed chunking.
func FuzzKernelLoopsAgree(f *testing.F) {
	rows := loopTable(f)
	ms := make([]*Machine, len(rows))
	for i, row := range rows {
		ms[i] = loopMachine(f, row)
		for j, in := range row.inputs {
			if len(in) >= 128 && len(in) <= 512 {
				f.Add(in, uint16(j%2*62)) // chunks of 1 and of 63
			}
		}
	}
	f.Add([]byte("ab"+strings.Repeat("z", 200)), uint16(0)) // the anchored row's death
	// The many-partition rows' inputs are longer than a seed, and none of
	// the seeds above reports on them: the tail of the CA_S order probe's
	// input ends in that machine's reports.
	probe := rows[len(rows)-1]
	tail := probe.inputs[0][len(probe.inputs[0])-512:]
	if driveLoop(ms[len(ms)-1], symbolLoops[0].start, tail, len(tail)).res.MatchCount == 0 {
		f.Fatalf("the last 512 bytes of the %s input make no report", probe.name)
	}
	f.Add(tail, uint16(0))
	f.Fuzz(func(t *testing.T, input []byte, chunk uint16) {
		// Every exec is some forty scans; keep the ones the engine spends
		// minimizing an input short.
		input = input[:min(len(input), 512)]
		for i, m := range ms {
			assertLoopsAgree(t, rows[i].name, m, input, []int{int(chunk) + 1})
		}
	})
}
