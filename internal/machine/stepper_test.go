package machine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/workload"
)

// stepper is the oracle the kernel is held to, and shares nothing with
// it: the placed automaton stepped as a set of enabled states over
// (pl.NFA, PartitionOf, SlotOf, pl.Cross) — no rows, no masks, no
// bitsets, and every partition with an enabled state looked at every
// cycle.
type stepper struct {
	pl      *mapper.Placement
	enabled map[nfa.StateID]bool
	starts  []nfa.StateID // the all-input starts, enabled in every cycle
	// g1/g4 are a matched state's G-switch source signals: one wire into
	// G-Switch-1 if it has a within-way target; one into G-Switch-4 if it
	// has a cross-way target, two if any of them is a chained hop.
	g1, g4 map[nfa.StateID]int64
	pos    int64
}

// stepCycle is what one symbol did: its matches in (partition, slot)
// order, and the enabled states, active partitions and G-switch signals
// the energy model is fed.
type stepCycle struct {
	matches               []Match
	states, parts, g1, g4 int64
}

func newStepper(pl *mapper.Placement) *stepper {
	s := &stepper{pl: pl, enabled: map[nfa.StateID]bool{}, g1: map[nfa.StateID]int64{}, g4: map[nfa.StateID]int64{}}
	for _, ce := range pl.Cross {
		switch ce.Via {
		case mapper.ViaG1:
			s.g1[ce.Src] = 1
		case mapper.ViaG4:
			s.g4[ce.Src] = max(s.g4[ce.Src], 1)
		case mapper.ViaChained:
			s.g4[ce.Src] = 2
		}
	}
	for id := range pl.NFA.States {
		switch pl.NFA.States[id].Start {
		case nfa.AllInput:
			s.starts = append(s.starts, nfa.StateID(id))
			s.enabled[nfa.StateID(id)] = true
		case nfa.StartOfData:
			s.enabled[nfa.StateID(id)] = true
		}
	}
	return s
}

func (s *stepper) step(sym byte) stepCycle {
	c := stepCycle{states: int64(len(s.enabled))}
	pl := s.pl
	active := map[int32]bool{}
	next := map[nfa.StateID]bool{}
	for _, id := range s.starts {
		next[id] = true
	}
	for id := range s.enabled {
		st := &pl.NFA.States[id]
		active[pl.PartitionOf[id]] = true
		if !st.Class.Has(sym) {
			continue
		}
		if st.Report {
			c.matches = append(c.matches, Match{Offset: s.pos, Code: st.ReportCode, State: id})
		}
		for _, v := range st.Out {
			next[v] = true
		}
		c.g1 += s.g1[id]
		c.g4 += s.g4[id]
	}
	c.parts = int64(len(active))
	sort.Slice(c.matches, func(a, b int) bool {
		x, y := c.matches[a].State, c.matches[b].State
		if pl.PartitionOf[x] != pl.PartitionOf[y] {
			return pl.PartitionOf[x] < pl.PartitionOf[y]
		}
		return pl.SlotOf[x] < pl.SlotOf[y]
	})
	s.enabled = next
	s.pos++
	return c
}

// vectors is the enabled set as the machine's snapshot lays it out.
func (s *stepper) vectors() [][wordsPerPartition]uint64 {
	out := make([][wordsPerPartition]uint64, len(s.pl.Partitions))
	for id := range s.enabled {
		slot := s.pl.SlotOf[id]
		out[s.pl.PartitionOf[id]][slot>>6] |= 1 << (slot & 63)
	}
	return out
}

// visits is how many partitions a symbol has to be shown to: those with
// a state enabled beyond their all-input starts, and those with an
// all-input start that accepts it.
func (s *stepper) visits(sym byte) int {
	need := map[int32]bool{}
	for id := range s.enabled {
		if st := &s.pl.NFA.States[id]; st.Start != nfa.AllInput || st.Class.Has(sym) {
			need[s.pl.PartitionOf[id]] = true
		}
	}
	return len(need)
}

// stepperRow is one multi-partition machine and the streams it is held
// to the stepper over.
type stepperRow struct {
	name   string
	pl     *mapper.Placement
	inputs [][]byte
	// check, when set, holds the machine to what the row is in the
	// table for.
	check func(t testing.TB, m *Machine)
}

func mapped(t testing.TB, n *nfa.NFA, err error) *mapper.Placement {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func mappedRules(t testing.TB, patterns ...string) *mapper.Placement {
	t.Helper()
	n, err := regexc.CompileSet(patterns, regexc.Options{MaxRepeat: 1000})
	return mapped(t, n, err)
}

// orderProbe is the rule-set family on which the order of same-offset
// matches used to depend on the machine's history: a long [ab] literal
// ending in z and two of its suffixes, so three partitions report at one
// offset and the later ones are entered over cross edges. The input is
// the literal six times over.
func orderProbe(rng *rand.Rand) (patterns []string, input []byte) {
	lit := make([]byte, 300+rng.Intn(401))
	for i := range lit {
		lit[i] = "ab"[rng.Intn(2)]
	}
	lit[len(lit)-1] = 'z'
	r := rng.Intn(50)
	patterns = []string{string(lit), string(lit[50+r:]), string(lit[150+r:])}
	return patterns, []byte(strings.Repeat(string(lit), 6))
}

// shiftCarries demands a partition whose successor chains cross all
// three word boundaries (slots 63→64, 127→128, 191→192).
func shiftCarries(t testing.TB, m *Machine) {
	for i := range m.parts {
		if s := &m.parts[i].shiftM; (s[0]&s[1]&s[2])>>63 == 1 {
			return
		}
	}
	t.Fatal("no partition's successor chains cross all three word boundaries")
}

// stepperTable is what TestKernelMatchesStepper sweeps and
// FuzzKernelMatchesStepper is seeded from.
func stepperTable(t testing.TB) []stepperRow {
	rng := rand.New(rand.NewSource(23))
	runs := func(sym byte, lens ...int) []byte { // runs of sym, a 'b' between them
		var out []byte
		for _, n := range lens {
			out = append(append(out, strings.Repeat(string(sym), n)...), 'b')
		}
		return out
	}
	snort := workload.ByName("Snort")
	sn, err := snort.Build(1, 0.1)
	rows := []stepperRow{
		// The ledger's scan-dense: every partition holds all-input starts.
		{"registry Snort", mapped(t, sn, err), [][]byte{snort.Input(1, 6<<10)}, func(t testing.TB, m *Machine) {
			if m.alwaysParts != int64(len(m.parts)) || len(m.parts) != 27 {
				t.Fatalf("%d of %d partitions hold an all-input start; scan-dense has 27 of 27", m.alwaysParts, len(m.parts))
			}
		}},
		// One start; the partitions behind it sleep until the frontier
		// crosses into them and die when a run of a's breaks.
		{"chain of 700", mappedRules(t, "a{700}"), [][]byte{runs('a', 900, 300, 10, 1500), runs('a', 5)}, func(t testing.TB, m *Machine) {
			shiftCarries(t, m)
			if m.alwaysParts != 1 || len(m.parts) < 3 {
				t.Fatalf("%d of %d partitions hold a start; want 1 of 3 or more", m.alwaysParts, len(m.parts))
			}
		}},
		// startOfData states are awake at cycle 0 and never again.
		{"anchored chains", mappedRules(t, "^"+literal(300), "^a{300}", literal(200)),
			[][]byte{[]byte(literal(300) + literal(300)), runs('a', 400, 300), []byte("z" + literal(300))}, func(t testing.TB, m *Machine) {
				for i := range m.parts {
					if p := &m.parts[i]; p.startOfData != [wordsPerPartition]uint64{} && p.always == [wordsPerPartition]uint64{} {
						return
					}
				}
				t.Fatal("no partition is entered at start of data only")
			}},
		// Slots whose fan-out is neither themselves nor their successor:
		// alternation forks, a ring closing backwards, a counted repeat.
		{"forks and rings", mappedRules(t, "x(abc|abd|acd)+y", "("+literal(70)+")+z", "q(a|bb|ccc){40}r", literal(250)),
			[][]byte{randomText(rng, 4000, []string{"xabcabdacdy", "xabcacdy", literal(70) + literal(70) + "z",
				"q" + strings.Repeat("abbccc", 14), literal(250), "xab", literal(70)})}, func(t testing.TB, m *Machine) {
				if len(m.parts) < 2 {
					t.Fatalf("%d partitions, want several", len(m.parts))
				}
				var other uint64
				for i := range m.parts {
					for _, w := range m.parts[i].otherM {
						other |= w
					}
				}
				if other == 0 {
					t.Fatal("no slot is on the per-slot local walk")
				}
			}},
	}
	for i := 0; i < 3; i++ {
		patterns, input := orderProbe(rng)
		rows = append(rows, stepperRow{fmt.Sprintf("order probe %d", i), mappedRules(t, patterns...), [][]byte{input}, nil})
	}
	// Four branches cut three ways: one partition's G-switch sources
	// lie in two of its words and lead to different states, so a
	// source finds its cross-points by a rank that counts the words
	// below its own.
	rows = append(rows, stepperRow{"cross sources in two words", mappedRules(t, "q(a{100}z{60}|b{100}y{60}|c{100}x{60}|d{100}w{60})"),
		[][]byte{randomText(rand.New(rand.NewSource(37)), 3000, []string{"q" + strings.Repeat("a", 100) + strings.Repeat("z", 60),
			"q" + strings.Repeat("b", 100) + strings.Repeat("y", 60), "q" + strings.Repeat("c", 100) + strings.Repeat("x", 60),
			"q" + strings.Repeat("d", 100) + strings.Repeat("w", 60), "q" + strings.Repeat("d", 100)})},
		func(t testing.TB, m *Machine) {
			for i := range m.parts {
				words := 0
				for _, w := range m.parts[i].hasCross {
					if w != 0 {
						words++
					}
				}
				if words >= 2 {
					return
				}
			}
			t.Fatal("no partition has G-switch sources in two words")
		}})
	return rows
}

// stepperMachine builds row's machine and applies the row's check.
func stepperMachine(t testing.TB, row stepperRow) *Machine {
	t.Helper()
	m, err := New(row.pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	if row.check != nil {
		row.check(t, m)
	}
	return m
}

// walk is what a scan of a whole input showed the kernel to be doing.
type walk struct {
	visits, active int64 // partitions visited and partitions active, summed over symbols
	mostAsleep     int   // the most partitions asleep at the end of any run
}

// holdToStepper feeds input to m in chunk-sized runs beside a stepper
// and holds every run to the cycles the stepper produced for it: the
// run's own matches, in order; the Activity delta across it; the peaks
// since the machine last lost its accumulators; the vector it ends in;
// and, from the inside, the awake set and the walk of the run's first
// symbol against their definitions. After a run, one time in four, the
// machine is suspended and resumed.
func holdToStepper(t *testing.T, label string, m *Machine, input []byte, chunk int, rng *rand.Rand) walk {
	t.Helper()
	var wk walk
	s := newStepper(m.pl)
	m.Reset()
	var peakStates, peakParts int64 // since the last Reset or Restore
	for i := 0; i < len(input); i += chunk {
		part := input[i:min(i+chunk, len(input))]
		var want ActivityStats
		var matches []Match
		for j, sym := range part {
			need := s.visits(sym)
			wk.visits += int64(need)
			if j == 0 { // the kernel's walk is known where a run starts
				walked := 0
				for w, aw := range m.awake {
					walked += bits.OnesCount64(aw | m.wake[int(m.classOf[sym])*len(m.awake)+w])
				}
				if walked != need {
					t.Fatalf("%s: symbol %d walks %d partitions, %d need it", label, i, walked, need)
				}
			}
			c := s.step(sym)
			matches = append(matches, c.matches...)
			want.Cycles++
			want.SumActiveStates += c.states
			want.SumActivePartitions += c.parts
			wk.active += c.parts
			want.SumG1Crossings += c.g1
			want.SumG4Crossings += c.g4
			peakStates, peakParts = max(peakStates, c.states), max(peakParts, c.parts)
		}
		before := m.res
		res := mustRun(m, part)
		at := fmt.Sprintf("%s, bytes %d–%d of %d in chunks of %d", label, i, i+len(part), len(input), chunk)
		if got := res.Matches[len(before.Matches):]; !slices.Equal(got, matches) {
			t.Fatalf("%s: matches\n%+v, the stepper's\n%+v", at, got, matches)
		}
		a, b := res.Activity, before.Activity
		got := ActivityStats{
			Cycles:              a.Cycles - b.Cycles,
			SumActiveStates:     a.SumActiveStates - b.SumActiveStates,
			SumActivePartitions: a.SumActivePartitions - b.SumActivePartitions,
			SumG1Crossings:      a.SumG1Crossings - b.SumG1Crossings,
			SumG4Crossings:      a.SumG4Crossings - b.SumG4Crossings,
		}
		if got != want {
			t.Fatalf("%s: activity %+v, the stepper's %+v", at, got, want)
		}
		if a.MaxActiveStates != peakStates || a.MaxActivePartitions != peakParts {
			t.Fatalf("%s: peaks %d states, %d partitions; the stepper's %d, %d",
				at, a.MaxActiveStates, a.MaxActivePartitions, peakStates, peakParts)
		}
		vec := s.vectors()
		if snap := m.Snapshot(); !reflect.DeepEqual(snap.Enabled, vec) || snap.Pos != s.pos {
			t.Fatalf("%s: ends at %d in %x, the stepper at %d in %x", at, snap.Pos, snap.Enabled, s.pos, vec)
		}
		asleep := 0
		for pi := range m.parts {
			awake := m.awake[pi>>6]>>(pi&63)&1 == 1
			if awake != (vec[pi] != m.parts[pi].always) {
				t.Fatalf("%s: partition %d awake=%v holding %x with starts %x", at, pi, awake, vec[pi], m.parts[pi].always)
			}
			if !awake {
				asleep++
			}
		}
		wk.mostAsleep = max(wk.mostAsleep, asleep)
		if rng.Intn(4) == 0 {
			if err := m.Restore(m.Snapshot()); err != nil {
				t.Fatal(err)
			}
			peakStates, peakParts = 0, 0
		}
	}
	return wk
}

// TestKernelMatchesStepper holds the multi-partition kernel — which
// skips sleeping partitions and accounts for them in closed form — to
// an oracle that does neither: symbol by symbol (one-symbol runs, so
// every Activity delta is one cycle's numbers), and over chunks of 63
// and the whole input, suspended and resumed at seeded cuts.
func TestKernelMatchesStepper(t *testing.T) {
	for _, row := range stepperTable(t) {
		t.Run(row.name, func(t *testing.T) {
			m := stepperMachine(t, row)
			rng := rand.New(rand.NewSource(29))
			for i, in := range row.inputs {
				label := fmt.Sprintf("input %d", i)
				wk := holdToStepper(t, label, m, in, 1, rng)
				holdToStepper(t, label, m, in, 63, rng)
				holdToStepper(t, label, m, in, len(in), rng)
				if row.name != "registry Snort" {
					continue
				}
				// What the ledger's scan-dense pays per symbol, and what
				// the energy model is still told.
				n, cycles := int64(len(m.parts)), int64(len(in))
				t.Logf("%.2f of %d partitions visited per symbol", float64(wk.visits)/float64(cycles), n)
				if wk.mostAsleep < 2 || wk.visits*2 > n*cycles {
					t.Errorf("at most %d partitions asleep at once, %d visits in %d cycles: nothing sleeps",
						wk.mostAsleep, wk.visits, cycles)
				}
				if wk.active != n*cycles {
					t.Errorf("%d active partitions over %d cycles, want %d a cycle", wk.active, cycles, n)
				}
			}
		})
	}
}

// FuzzKernelMatchesStepper is the stepper comparison on inputs and
// chunkings the table does not hold.
func FuzzKernelMatchesStepper(f *testing.F) {
	rows := stepperTable(f)
	ms := make([]*Machine, len(rows))
	for i, row := range rows {
		ms[i] = stepperMachine(f, row)
		in := row.inputs[0]
		f.Add(in[:min(len(in), 512)], uint16(i%2*62), int64(i)) // chunks of 1 and of 63
	}
	f.Fuzz(func(t *testing.T, input []byte, chunk uint16, seed int64) {
		// Keep the execs the engine spends minimizing an input short.
		input = input[:min(len(input), 512)]
		for i, m := range ms {
			holdToStepper(t, rows[i].name, m, input, int(chunk)+1, rand.New(rand.NewSource(seed)))
		}
	})
}

// TestMatchOrderSurvivesRestore holds Result.Matches to one order — by
// offset, then partition, then slot — whatever the machine's history: a
// stream suspended and resumed after every byte delivers exactly the
// slice the uninterrupted run does. (It did not while a cycle's matches
// came out in the order partitions had been activated, which a Restore
// forgets.)
func TestMatchOrderSurvivesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		patterns, input := orderProbe(rng)
		pl := mappedRules(t, patterns...)
		if len(pl.Cross) == 0 {
			t.Fatalf("trial %d: %d partitions and no cross edge", trial, len(pl.Partitions))
		}
		m, err := New(pl, Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		whole := mustRun(m, input).Matches
		if len(whole) != 3*6 {
			t.Fatalf("trial %d: %d matches, want each of 3 rules 6 times", trial, len(whole))
		}
		m.Reset()
		var resumed []Match
		for i := range input {
			resumed = append(resumed, mustRun(m, input[i:i+1]).Matches...)
			if err := m.Restore(m.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(whole, resumed) {
			t.Fatalf("trial %d: uninterrupted\n%+v\nresumed after every byte\n%+v", trial, whole, resumed)
		}
	}
}
