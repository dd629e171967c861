package machine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

// buildPool compiles patterns and returns one sequential reference machine
// plus k pool machines, all sharing the placement.
func buildPool(t testing.TB, patterns []string, k int) (*Machine, []*Machine) {
	t.Helper()
	n, err := regexc.CompileSet(patterns, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1, AllowChainedG4: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(pl, Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]*Machine, k)
	for i := range pool {
		if pool[i], err = New(pl, Options{CollectMatches: true}); err != nil {
			t.Fatal(err)
		}
	}
	return seq, pool
}

// randomText mixes pattern fragments into noise so shards see real matches
// at unpredictable offsets.
func randomText(rng *rand.Rand, size int, fragments []string) []byte {
	out := make([]byte, 0, size)
	for len(out) < size {
		if rng.Intn(6) == 0 {
			out = append(out, fragments[rng.Intn(len(fragments))]...)
		} else {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	return out[:size]
}

func assertResultsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.MatchCount != got.MatchCount {
		t.Fatalf("%s: MatchCount %d vs sequential %d", label, got.MatchCount, want.MatchCount)
	}
	if len(want.Matches) != len(got.Matches) {
		t.Fatalf("%s: %d collected matches vs sequential %d", label, len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if want.Matches[i] != got.Matches[i] {
			t.Fatalf("%s: match %d is %+v vs sequential %+v", label, i, got.Matches[i], want.Matches[i])
		}
	}
	if want.Activity != got.Activity {
		t.Fatalf("%s: activity %+v vs sequential %+v", label, got.Activity, want.Activity)
	}
	if want.FIFORefills != got.FIFORefills {
		t.Fatalf("%s: FIFORefills %d vs sequential %d", label, got.FIFORefills, want.FIFORefills)
	}
	if want.OutputBufferInterrupts != got.OutputBufferInterrupts {
		t.Fatalf("%s: interrupts %d vs sequential %d", label, got.OutputBufferInterrupts, want.OutputBufferInterrupts)
	}
	if want.OutputBufferPeak != got.OutputBufferPeak {
		t.Fatalf("%s: buffer peak %d vs sequential %d", label, got.OutputBufferPeak, want.OutputBufferPeak)
	}
}

// TestRunShardedMatchesSequential is the differential test behind the
// parallel engine: random inputs over pattern sets with and without
// unbounded state memory, across shard counts, must reproduce the
// sequential Result bit for bit.
func TestRunShardedMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		frags    []string
	}{
		{
			name:     "literals",
			patterns: []string{"needle", "gopher[0-9]{2}", "abba"},
			frags:    []string{"needle", "gopher42", "abba", "need", "gopher"},
		},
		{
			// `x.*y` holds a state bit set forever once an 'x' is seen, so
			// idle warm-up cannot converge and the repair pass must run.
			name:     "persistent-state",
			patterns: []string{"x.*yz", "begin.*end"},
			frags:    []string{"x", "yz", "begin", "end", "xqqyz"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, pool := buildPool(t, tc.patterns, 8)
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				input := randomText(rng, 3*minShardBytes+rng.Intn(5000), tc.frags)
				seq.Reset()
				want := mustRun(seq, input)
				if want.MatchCount == 0 {
					t.Fatalf("trial %d: degenerate test, no matches", trial)
				}
				for _, shards := range []int{2, 3, 8} {
					got, err := RunShardedContext(context.Background(), pool[:shards], input)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, fmt.Sprintf("trial %d shards %d", trial, shards), want, got)
				}
			}
		})
	}
}

// TestRunShardedRepairsThroughRestore pins the repair pass on a
// multi-partition automaton: the only 'a' is the first byte, so `a.*b`
// holds its bit for the rest of the stream while every later shard warms
// up on a-free text and speculates the idle state. Each of them must be
// re-seated on its predecessor's snapshot, or its 'b' matches are lost.
func TestRunShardedRepairsThroughRestore(t *testing.T) {
	seq, pool := buildPool(t, append(manyLiteralPatterns(60), "a.*b"), 4)
	if seq.NumPartitions() < 2 {
		t.Fatalf("want a multi-partition automaton, got %d", seq.NumPartitions())
	}
	input := []byte("a")
	for len(input) < 4*minShardBytes {
		input = append(input, "common07he b common59h "...)
	}
	want := mustRun(seq, input)
	for _, shards := range []int{2, 4} {
		got, err := RunShardedContext(context.Background(), pool[:shards], input)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, fmt.Sprintf("shards %d", shards), want, got)
	}
}

// TestRunShardedSmallInputFallsBack checks the sequential fallback for
// inputs too short to shard.
func TestRunShardedSmallInputFallsBack(t *testing.T) {
	seq, pool := buildPool(t, []string{"ab+a"}, 4)
	input := []byte("xxabbbbaxxabay")
	seq.Reset()
	want := mustRun(seq, input)
	got, err := RunShardedContext(context.Background(), pool, input)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "small input", want, got)
}

// TestRunShardedReusesMachines runs twice on the same pool: stale state
// from the first run must not leak into the second.
func TestRunShardedReusesMachines(t *testing.T) {
	seq, pool := buildPool(t, []string{"cat.*dog"}, 4)
	rng := rand.New(rand.NewSource(11))
	a := randomText(rng, 2*minShardBytes, []string{"cat", "dog"})
	b := randomText(rng, 2*minShardBytes, []string{"cat", "dog"})
	if _, err := RunShardedContext(context.Background(), pool, a); err != nil {
		t.Fatal(err)
	}
	seq.Reset()
	want := mustRun(seq, b)
	got, err := RunShardedContext(context.Background(), pool, b)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "second run", want, got)
}

func TestRunShardedRejectsMixedPlacements(t *testing.T) {
	_, poolA := buildPool(t, []string{"aa"}, 1)
	_, poolB := buildPool(t, []string{"bb"}, 1)
	if _, err := RunShardedContext(context.Background(), []*Machine{poolA[0], poolB[0]}, make([]byte, 3*minShardBytes)); err == nil {
		t.Fatal("RunSharded accepted machines with different placements")
	}
}

func TestShardsFor(t *testing.T) {
	if got := ShardsFor(8, 100); got != 1 {
		t.Fatalf("ShardsFor(8, 100) = %d, want 1", got)
	}
	if got := ShardsFor(8, 16*minShardBytes); got != 8 {
		t.Fatalf("ShardsFor(8, large) = %d, want 8", got)
	}
	if got := ShardsFor(8, 3*minShardBytes); got != 3 {
		t.Fatalf("ShardsFor(8, 3*min) = %d, want 3", got)
	}
}
