package cacheautomaton_test

import (
	"bytes"
	"context"
	"fmt"

	ca "cacheautomaton"
)

// The basic flow: compile a rule set, scan a buffer, read the matches.
func ExampleCompileRegex() {
	a, err := ca.CompileRegex([]string{"cat", "dog.*food"}, ca.Options{})
	if err != nil {
		panic(err)
	}
	matches, _, _ := a.RunContext(context.Background(), []byte("the cat ate dog food"))
	for _, m := range matches {
		fmt.Printf("rule %d at offset %d\n", m.Pattern, m.Offset)
	}
	// Output:
	// rule 0 at offset 6
	// rule 1 at offset 19
}

// The space-optimized design merges shared structure before mapping.
func ExampleOptions_space() {
	rules := []string{"prefix-shared-one", "prefix-shared-two"}
	perf, _ := ca.CompileRegex(rules, ca.Options{Design: ca.Performance})
	space, _ := ca.CompileRegex(rules, ca.Options{Design: ca.Space})
	fmt.Printf("CA_P: %d states at %.1f GHz\n", perf.States(), perf.FrequencyGHz())
	fmt.Printf("CA_S: %d states at %.1f GHz\n", space.States(), space.FrequencyGHz())
	// Output:
	// CA_P: 34 states at 2.0 GHz
	// CA_S: 20 states at 1.2 GHz
}

// Approximate search with Levenshtein automata.
func ExampleCompileFuzzy() {
	a, err := ca.CompileFuzzy([]string{"automaton"}, 1, ca.Options{})
	if err != nil {
		panic(err)
	}
	matches, _, _ := a.RunContext(context.Background(), []byte("an automatIn appears")) // 1 substitution
	fmt.Println(len(matches) > 0)
	// Output:
	// true
}

// Streaming with suspend/resume: a match can span the suspension point.
func ExampleAutomaton_StreamContext() {
	ctx := context.Background()
	a, _ := ca.CompileRegex([]string{"handoff"}, ca.Options{})
	s, _ := a.StreamContext(ctx)
	_, _ = s.FeedContext(ctx, []byte("...hand"))

	var state bytes.Buffer
	_ = s.Suspend(&state) // e.g. persist per-connection state

	resumed, _ := a.ResumeStreamContext(ctx, &state)
	matches, _ := resumed.FeedContext(ctx, []byte("off..."))
	for _, m := range matches {
		fmt.Printf("rule %d completed at offset %d\n", m.Pattern, m.Offset)
	}
	// Output:
	// rule 0 completed at offset 9
}
