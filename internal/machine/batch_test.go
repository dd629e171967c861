package machine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/telemetry"
)

// batchReference runs each input through its own Reset+RunContext sweep on a
// machine built from the same placement — the per-request serving path
// RunBatch must reproduce bit for bit.
func batchReference(t *testing.T, m *Machine, inputs []string) []Result {
	t.Helper()
	out := make([]Result, len(inputs))
	for i, in := range inputs {
		m.Reset()
		out[i] = *mustRun(m, []byte(in))
	}
	m.Reset()
	return out
}

func batchInputs(rng *rand.Rand, sizes []int, frags []string) []string {
	inputs := make([]string, len(sizes))
	for i, n := range sizes {
		inputs[i] = string(randomText(rng, n, frags))
	}
	return inputs
}

// assertBatch holds every stream of a batch to its reference Result.
func assertBatch(t *testing.T, label string, want []Result, got []BatchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results for %d inputs", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("%s: stream %d failed: %v", label, i, got[i].Err)
		}
		assertResultsEqual(t, fmt.Sprintf("%s stream %d", label, i), &want[i], &got[i].Result)
	}
}

// TestRunBatchMatchesSequential is RunBatch's contract test: every stream
// of a batch must reproduce the per-input Reset+RunContext Result exactly
// — matches, offsets, activity, FIFO and output-buffer accounting — and
// the machine must come back clean. (Both sides run the same symbol loop;
// TestKernelLoopsAgree compares the loops over these streams.)
func TestRunBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		frags    []string
	}{
		{
			// Few states in one partition, all slots below 64.
			name:     "one-word",
			patterns: []string{"needle[0-9]", "x[abc]+y"},
			frags:    []string{"needle7", "xaby", "xcccy", "need", "xq"},
		},
		{
			// `x.*y` pins a state bit forever, so streams stay live with
			// different enabled vectors to the end of their inputs.
			name:     "persistent-state",
			patterns: []string{"x.*yz", "begin.*end", "hay.{2}stack"},
			frags:    []string{"x", "yz", "begin", "end", "haynostack"},
		},
		{
			// 60 merged literals spread over several partitions.
			name:     "multi-partition",
			patterns: manyLiteralPatterns(60),
			frags:    []string{"common07head", "common59head", "common"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := regexc.CompileSet(tc.patterns, regexc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(pl, Options{CollectMatches: true})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			inputs := batchInputs(rng, raggedSizes, tc.frags)
			want := batchReference(t, m, inputs)

			// Twice: the machine must come back clean.
			for round := 0; round < 2; round++ {
				got, err := m.RunBatch(context.Background(), inputs)
				if err != nil {
					t.Fatal(err)
				}
				assertBatch(t, fmt.Sprintf("RunBatch round %d", round), want, got)
			}
		})
	}
}

func manyLiteralPatterns(k int) []string {
	pats := make([]string, k)
	for i := range pats {
		pats[i] = fmt.Sprintf("common%02dhead", i)
	}
	return pats
}

// TestRunBatchDeadStreams covers dead streams: an automaton whose only
// start state fires at start-of-data goes quiet after a few symbols (the
// one-partition loops stop scanning there), and the remaining input must
// still contribute exact cycle and FIFO-refill accounting.
func TestRunBatchDeadStreams(t *testing.T) {
	a := nfa.New()
	s0 := a.AddState(nfa.State{Class: bitvec.ClassOf('a'), Start: nfa.StartOfData})
	s1 := a.AddState(nfa.State{Class: bitvec.ClassOf('b')})
	a.AddEdge(s0, s1)
	a.States[s1].Report = true
	a.States[s1].ReportCode = 1

	pl, err := mapper.Map(a, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}

	var inputs []string
	for _, in := range deadStreamInputs() {
		inputs = append(inputs, string(in))
	}
	want := batchReference(t, m, inputs)
	got, err := m.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertBatch(t, "dead", want, got)
}

// TestRunBatchContextCancel: a canceled ctx abandons the batch with its
// error, and the machine comes back Reset and fully usable.
func TestRunBatchContextCancel(t *testing.T) {
	seq, pool := buildPool(t, []string{"needle[0-9]", "x[abc]+y"}, 1)
	m := pool[0]
	rng := rand.New(rand.NewSource(7))
	inputs := batchInputs(rng, []int{1 << 20, 1 << 20}, []string{"needle7", "xaby"})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunBatch(ctx, inputs); err == nil {
		t.Fatal("canceled batch returned no error")
	}

	// The machine must be clean: a fresh run matches the reference.
	small := []byte(inputs[0][:4096])
	seq.Reset()
	want := *mustRun(seq, small)
	m.Reset()
	got := *mustRun(m, small)
	assertResultsEqual(t, "post-cancel run", &want, &got)
}

// panicOnceObserver panics on its nth ObserveRun call — a way to blow
// up inside exactly one stream of a batch.
type panicOnceObserver struct {
	at    int
	calls int
}

func (o *panicOnceObserver) ObserveRun(telemetry.RunSummary) {
	o.calls++
	if o.calls == o.at {
		panic("observer blew up")
	}
}

// TestRunBatchStreamPanicIsolation: a panic inside one stream's scan
// fails only that stream — the others still reproduce their reference
// results exactly, on the same machine, in the same batch.
func TestRunBatchStreamPanicIsolation(t *testing.T) {
	patterns := []string{"needle[0-9]", "x[abc]+y"}
	n, err := regexc.CompileSet(patterns, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	inputs := batchInputs(rng, []int{1000, 1000, 1000}, []string{"needle7", "xaby"})
	want := batchReference(t, ref, inputs)

	// RunBatch reports once per stream, from inside the stream's guarded
	// scan: the second ObserveRun is stream 1's.
	m, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Observer = &panicOnceObserver{at: 2}
	got, err := m.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Err == nil {
		t.Fatal("stream 1 should have failed")
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil {
			t.Fatalf("stream %d failed: %v", i, got[i].Err)
		}
		r := got[i].Result
		assertResultsEqual(t, fmt.Sprintf("survivor stream %d", i), &want[i], &r)
	}
}

// TestRunBatchRandomized sweeps random pattern sets and ragged input
// mixes through RunBatch against the per-input reference.
func TestRunBatchRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	pieces := []string{"ab", "a+b", "[abc]{2}", "c.d", "x.*y", "(ab|ba)c", "q{2,4}", "[^a]z"}
	for trial := 0; trial < 15; trial++ {
		var pats []string
		for p := 0; p < 2+r.Intn(5); p++ {
			pats = append(pats, pieces[r.Intn(len(pieces))]+pieces[r.Intn(len(pieces))])
		}
		n, err := regexc.CompileSet(pats, regexc.Options{})
		if err != nil {
			continue
		}
		pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(pl, Options{CollectMatches: true})
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(7)
		inputs := make([]string, k)
		for i := range inputs {
			in := make([]byte, r.Intn(6000))
			for j := range in {
				in[j] = byte("abcdxyzq"[r.Intn(8)])
			}
			inputs[i] = string(in)
		}
		want := batchReference(t, m, inputs)
		got, err := m.RunBatch(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		assertBatch(t, fmt.Sprintf("trial %d", trial), want, got)
	}
}
