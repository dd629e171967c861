// Package difftest_test runs the differential correctness harness: every
// execution path of the library (Run, RunParallel, Stream with random
// chunk splits) must report exactly the match set Go's regexp oracle
// predicts, over generated pattern sets and inputs.
package difftest_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	ca "cacheautomaton"
	"cacheautomaton/internal/difftest"
)

// caseCount is the generated-case budget: the acceptance bar is ≥ 1000
// cases on the full run; -short trims it for the inner dev loop.
func caseCount(t *testing.T) int {
	if testing.Short() {
		return 200
	}
	return 1000
}

func toReports(ms []ca.Match) []difftest.Report {
	out := make([]difftest.Report, len(ms))
	for i, m := range ms {
		out[i] = difftest.Report{Pattern: m.Pattern, Offset: m.Offset}
	}
	return out
}

// TestDifferentialGeneratedCases is the main harness: generated
// (patterns, input) cases where Run, Stream (random chunking) and — on a
// sampled subset, with inputs long enough to shard — RunParallel must all
// equal the oracle.
func TestDifferentialGeneratedCases(t *testing.T) {
	n := caseCount(t)
	g := difftest.New(1)
	for i := 0; i < n; i++ {
		patterns := g.Patterns(3)
		input := g.Input(16 + i%80)
		oracle, err := difftest.NewOracle(patterns)
		if err != nil {
			t.Fatalf("case %d: oracle rejects generated pattern %q: %v", i, patterns, err)
		}
		want := oracle.Reports(input)

		a, err := ca.CompileRegex(patterns, ca.Options{})
		if err != nil {
			t.Fatalf("case %d: CompileRegex(%q): %v", i, patterns, err)
		}

		ms, _, err := a.RunContext(context.Background(), input)
		if err != nil {
			t.Fatalf("case %d: Run: %v", i, err)
		}
		if d := difftest.Diff(want, difftest.Set(toReports(ms))); d != "" {
			t.Fatalf("case %d: Run diverges from oracle\npatterns=%q\ninput=%q\n%s", i, patterns, input, d)
		}

		// Stream: the same input in random chunks must deliver the same
		// set, with absolute offsets.
		s, err := a.StreamContext(context.Background())
		if err != nil {
			t.Fatalf("case %d: Stream: %v", i, err)
		}
		var streamed []difftest.Report
		for _, chunk := range g.Chunks(input) {
			ms, err := s.FeedContext(context.Background(), chunk)
			if err != nil {
				t.Fatalf("case %d: FeedContext: %v", i, err)
			}
			streamed = append(streamed, toReports(ms)...)
		}
		s.Close()
		if d := difftest.Diff(want, difftest.Set(streamed)); d != "" {
			t.Fatalf("case %d: Stream diverges from oracle\npatterns=%q\ninput=%q\n%s", i, patterns, input, d)
		}
	}
}

// TestDifferentialRunParallel stretches a sample of generated cases onto
// inputs long enough for RunSharded to actually shard, and checks the
// parallel path against the oracle too.
func TestDifferentialRunParallel(t *testing.T) {
	n := caseCount(t) / 100
	g := difftest.New(2)
	size := 64 * 1024 // > 2 shards at the engine's 8 KB-per-shard floor
	for i := 0; i < n; i++ {
		patterns := []string{g.BoundedPattern(), g.BoundedPattern()}
		input := g.Input(size)
		oracle, err := difftest.NewOracle(patterns)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := oracle.WindowedReports(input, difftest.BoundedWindow)
		a, err := ca.CompileRegex(patterns, ca.Options{})
		if err != nil {
			t.Fatalf("case %d: CompileRegex(%q): %v", i, patterns, err)
		}
		ms, _, err := a.RunParallelContext(context.Background(), input, 4)
		if err != nil {
			t.Fatalf("case %d: RunParallel: %v", i, err)
		}
		if d := difftest.Diff(want, difftest.Set(toReports(ms))); d != "" {
			t.Fatalf("case %d: RunParallel diverges from oracle\npatterns=%q\n%s", i, patterns, d)
		}
	}
}

// TestDifferentialTable pins known-tricky shapes: overlap, nesting,
// counted repetition, anchoring, '.'-with-newline, negated classes.
func TestDifferentialTable(t *testing.T) {
	cases := []struct {
		patterns []string
		input    string
	}{
		{[]string{"aa"}, "aaaa"},                        // overlapping matches
		{[]string{"a+"}, "aaab"},                        // every prefix end reports
		{[]string{"ab|b"}, "abab"},                      // nested alternatives
		{[]string{"^a.c"}, "a\nc abc"},                  // anchor + dot-newline
		{[]string{"[^a]b"}, "ab\nbxb"},                  // negated class incl newline
		{[]string{"a{2,3}"}, "aaaaa"},                   // counted repetition
		{[]string{"(ab)+"}, "ababab"},                   // quantified group
		{[]string{"cat", "at"}, "the cat"},              // two patterns, shared suffix
		{[]string{"x(0|1){2}y"}, "x01y x10y x012y"},     // exact count
		{[]string{"a(b|c)*d"}, "abcbcd ad abd"},         // star over group
		{[]string{"^(a|b)c?"}, "ac bc a b cc"},          // anchored alternation
		{[]string{"z{2}", "z{3}"}, "zzzz"},              // counted siblings
		{[]string{" .a"}, "a a  a"},                     // literal space + dot
		{[]string{"(a|ab)(c|bc)"}, "abc"},               // classic ambiguity
		{[]string{"[a-c]{1,2}x"}, "abx cx aax abcx bx"}, // range class + count
	}
	for _, tc := range cases {
		want, err := difftest.Reference(tc.patterns, []byte(tc.input))
		if err != nil {
			t.Fatalf("%q: %v", tc.patterns, err)
		}
		a, err := ca.CompileRegex(tc.patterns, ca.Options{})
		if err != nil {
			t.Fatalf("%q: %v", tc.patterns, err)
		}
		ms, _, err := a.RunContext(context.Background(), []byte(tc.input))
		if err != nil {
			t.Fatalf("%q: %v", tc.patterns, err)
		}
		if d := difftest.Diff(want, difftest.Set(toReports(ms))); d != "" {
			t.Errorf("patterns %q input %q: %s", tc.patterns, tc.input, d)
		}
	}
}

// TestDifferentialQuick is the testing/quick property: for a fixed
// compiled pattern set, the automaton's report set on arbitrary generated
// inputs equals the oracle's.
func TestDifferentialQuick(t *testing.T) {
	patterns := []string{"ab?c", "x.z", "[a-c]{2}", "^y"}
	a, err := ca.CompileRegex(patterns, ca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := difftest.NewOracle(patterns)
	if err != nil {
		t.Fatal(err)
	}
	g := difftest.New(3)
	property := func(n uint16) bool {
		input := g.Input(int(n % 512))
		ms, _, err := a.RunContext(context.Background(), input)
		if err != nil {
			t.Logf("Run: %v", err)
			return false
		}
		if d := difftest.Diff(oracle.Reports(input), difftest.Set(toReports(ms))); d != "" {
			t.Logf("input %q: %s", input, d)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestGeneratorWellFormed checks the generator's own guarantees: every
// generated pattern compiles under both engines and never matches the
// empty string, and Chunks always reassembles to its input.
func TestGeneratorWellFormed(t *testing.T) {
	g := difftest.New(5)
	for i := 0; i < 300; i++ {
		p := g.Pattern()
		if _, err := difftest.NewOracle([]string{p}); err != nil {
			t.Fatalf("pattern %d %q rejected by Go regexp: %v", i, p, err)
		}
		if _, err := ca.CompileRegex([]string{p}, ca.Options{}); err != nil {
			t.Fatalf("pattern %d %q rejected by automaton compiler: %v", i, p, err)
		}
	}
	for i := 0; i < 100; i++ {
		input := g.Input(1 + i)
		var joined []byte
		for _, c := range g.Chunks(input) {
			joined = append(joined, c...)
		}
		if !reflect.DeepEqual(joined, input) {
			t.Fatalf("chunks reassemble to %q, want %q", joined, input)
		}
	}
}
