package machine

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

// derived is what derive fills, plus the occupancy Snapshot reads from it.
type derived struct {
	refills, interrupts, peak, dynamic int64
	buffered                           int
}

func derivedOf(m *Machine, r *Result) derived {
	return derived{r.FIFORefills, r.OutputBufferInterrupts, r.OutputBufferPeak,
		r.Activity.SumDynamicStates, m.Snapshot().OutBuffered}
}

// bookkeep is the reference derive is pinned against: the §2.8 hardware
// bookkeeping done the slow way, one symbol at a time — the FIFO fetches
// a cache line when the stream first touches it, every report is pushed
// into the 64-entry buffer, which interrupts and drains when full, and
// the dynamic states are counted off the enabled vectors before each
// symbol. A cut > 0 is a suspend/resume there: statistics restart, the
// buffer keeps its entries and the FIFO keeps the line it was reading.
// It returns the numbers at the cut and at the end of input.
func bookkeep(t *testing.T, pl *mapper.Placement, input []byte, cut int) (atCut, atEnd derived) {
	t.Helper()
	m, err := New(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var d derived
	var nextLine, reported int64
	for pos, sym := range input {
		if pos == cut {
			atCut = d
			d = derived{buffered: d.buffered}
		}
		if line := int64(pos) / cacheLineBytes; line >= nextLine {
			d.refills++
			nextLine = line + 1
		}
		for i := range m.parts {
			p := &m.parts[i]
			for w, e := range p.enabled {
				d.dynamic += int64(bits.OnesCount64(e &^ p.always[w]))
			}
		}
		res := mustRun(m, []byte{sym})
		for ; reported < res.MatchCount; reported++ {
			d.buffered++
			d.peak = max(d.peak, int64(d.buffered))
			if d.buffered == OutputBufferEntries {
				d.interrupts++
				d.buffered = 0
			}
		}
	}
	return atCut, d
}

// TestDerivedNumbersMatchBookkeeping pins derive's five formulas: on
// every chunking of the stream, with and without a suspend/resume (through
// the wire format) in the middle, a sequential run hands out the numbers
// the symbol-by-symbol bookkeeping arrives at.
func TestDerivedNumbersMatchBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	long := 64<<10 + 1000
	cases := []struct {
		name     string
		patterns []string
		input    []byte
		cut      int
		check    func(t *testing.T, m *Machine, whole *Result, cutBuffered int)
	}{
		{
			name:     "one partition",
			patterns: []string{"needle[0-9]", "x[abc]+y"},
			input:    randomText(rng, long, []string{"needle7", "xaby", "xcccy", "need", "xq"}),
			cut:      12345,
		},
		{
			name:     "many partitions",
			patterns: append(manyLiteralPatterns(60), "a.*b"),
			input:    randomText(rng, long, []string{"common07head", "common59head", "a", " b"}),
			cut:      33333,
			check: func(t *testing.T, m *Machine, _ *Result, _ int) {
				if m.NumPartitions() < 2 {
					t.Fatalf("want a multi-partition automaton, got %d", m.NumPartitions())
				}
			},
		},
		{
			name:     "anchored, partition dies",
			patterns: []string{"^abc"},
			input:    append([]byte("abcabz"), make([]byte, 300)...),
			cut:      100,
			check: func(t *testing.T, _ *Machine, whole *Result, _ int) {
				if a := whole.Activity; whole.MatchCount != 1 || a.SumActivePartitions >= a.Cycles {
					t.Fatalf("want one match and a dead partition, got %d matches, active %d of %d cycles",
						whole.MatchCount, a.SumActivePartitions, a.Cycles)
				}
			},
		},
		{
			name:     "a report every symbol",
			patterns: []string{"a"},
			input:    bytes.Repeat([]byte("a"), 200),
			cut:      100,
			check: func(t *testing.T, _ *Machine, whole *Result, cutBuffered int) {
				if whole.OutputBufferInterrupts != 3 || whole.OutputBufferPeak != OutputBufferEntries {
					t.Fatalf("200 reports: %d interrupts, peak %d, want 3 and %d",
						whole.OutputBufferInterrupts, whole.OutputBufferPeak, OutputBufferEntries)
				}
				if cutBuffered != 100-OutputBufferEntries {
					t.Fatalf("suspended with %d entries buffered, want %d", cutBuffered, 100-OutputBufferEntries)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := regexc.CompileSet(tc.patterns, regexc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1, AllowChainedG4: true})
			if err != nil {
				t.Fatal(err)
			}
			_, wantWhole := bookkeep(t, pl, tc.input, 0)
			wantCut, wantEnd := bookkeep(t, pl, tc.input, tc.cut)

			for _, chunk := range []int{1, 63, 64, 65, 64 << 10} {
				label := fmt.Sprintf("chunk %d", chunk)
				m, err := New(pl, Options{})
				if err != nil {
					t.Fatal(err)
				}
				feed := func(m *Machine, in []byte) (res *Result) {
					for len(in) > 0 {
						n := min(chunk, len(in))
						res = mustRun(m, in[:n])
						in = in[n:]
					}
					return res
				}
				whole := feed(m, tc.input)
				if got := derivedOf(m, whole); got != wantWhole {
					t.Fatalf("%s, whole stream: %+v, bookkeeping says %+v", label, got, wantWhole)
				}

				m.Reset()
				head := feed(m, tc.input[:tc.cut])
				if got := derivedOf(m, head); got != wantCut {
					t.Fatalf("%s, up to the cut: %+v, bookkeeping says %+v", label, got, wantCut)
				}
				var wire bytes.Buffer
				if _, err := m.Snapshot().WriteTo(&wire); err != nil {
					t.Fatal(err)
				}
				snap, err := ReadSnapshot(&wire)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := New(pl, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.Restore(snap); err != nil {
					t.Fatal(err)
				}
				tail := feed(resumed, tc.input[tc.cut:])
				if got := derivedOf(resumed, tail); got != wantEnd {
					t.Fatalf("%s, resumed at %d with %d buffered: %+v, bookkeeping says %+v",
						label, tc.cut, snap.OutBuffered, got, wantEnd)
				}
				if tc.check != nil {
					tc.check(t, m, whole, snap.OutBuffered)
				}
			}
		})
	}
}
