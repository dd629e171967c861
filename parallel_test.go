package cacheautomaton

import (
	"context"
	"math/rand"
	"testing"
)

// parallelTestInput mixes pattern fragments into noise, large enough that
// RunParallel actually shards (the engine falls back to sequential below
// ~8 KB per shard).
func parallelTestInput(seed int64, size int, fragments []string) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, size)
	for len(out) < size {
		if rng.Intn(8) == 0 {
			out = append(out, fragments[rng.Intn(len(fragments))]...)
		} else {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	return out[:size]
}

// TestRunParallelMatchesRun is the facade-level differential test: every
// shard count must reproduce the sequential matches and statistics
// exactly, including patterns whose state memory outlives any warm-up
// window (`x.*y` forces the repair pass).
func TestRunParallelMatchesRun(t *testing.T) {
	a, err := CompileRegex([]string{"needle[0-9]{2}", "x.*yz", "abba"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := parallelTestInput(3, 200_000, []string{"needle07", "x", "yz", "abba", "needle"})
	wantMatches, wantStats, err := a.RunContext(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantMatches) == 0 {
		t.Fatal("degenerate test: no matches")
	}
	for _, shards := range []int{2, 3, 8, 0} {
		gotMatches, gotStats, err := a.RunParallelContext(context.Background(), input, shards)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if len(gotMatches) != len(wantMatches) {
			t.Fatalf("shards %d: %d matches, sequential %d", shards, len(gotMatches), len(wantMatches))
		}
		for i := range wantMatches {
			if gotMatches[i] != wantMatches[i] {
				t.Fatalf("shards %d: match %d is %+v, sequential %+v", shards, i, gotMatches[i], wantMatches[i])
			}
		}
		if *gotStats != *wantStats {
			t.Fatalf("shards %d: stats %+v, sequential %+v", shards, *gotStats, *wantStats)
		}
	}
}

// TestRunParallelSmallInputFallsBack checks short inputs take the
// sequential path and still give identical results.
func TestRunParallelSmallInputFallsBack(t *testing.T) {
	a, err := CompileRegex([]string{"cat", "dog.*food"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("the cat ate dog brand food, the cat approved")
	wantMatches, wantStats, err := a.RunContext(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	gotMatches, gotStats, err := a.RunParallelContext(context.Background(), input, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMatches) != len(wantMatches) || *gotStats != *wantStats {
		t.Fatalf("fallback differs: %d matches %+v vs %d matches %+v",
			len(gotMatches), *gotStats, len(wantMatches), *wantStats)
	}
}

// TestRunParallelRepeatable runs the parallel path twice: pool machines
// must carry no state between calls.
func TestRunParallelRepeatable(t *testing.T) {
	a, err := CompileRegex([]string{"begin.*end"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := parallelTestInput(9, 120_000, []string{"begin", "end"})
	m1, s1, err := a.RunParallelContext(context.Background(), input, 4)
	if err != nil {
		t.Fatal(err)
	}
	m2, s2, err := a.RunParallelContext(context.Background(), input, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) || *s1 != *s2 {
		t.Fatalf("second parallel run differs: %d/%+v vs %d/%+v", len(m2), *s2, len(m1), *s1)
	}
}
