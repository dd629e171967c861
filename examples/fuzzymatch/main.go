// fuzzymatch: approximate string search with Levenshtein automata — the
// edit-distance workload of the paper's Table 1. Finds dictionary words in
// noisy text even when they are misspelled by up to 2 edits.
package main

import (
	"context"
	"fmt"
	"log"

	ca "cacheautomaton"
)

func main() {
	words := []string{"automaton", "processor", "cache"}
	a, err := ca.CompileFuzzy(words, 2, ca.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Misspellings: "automatan" (1 sub), "procesor" (1 del),
	// "cachee" (1 ins), "koshar" (3 edits — should NOT match).
	text := []byte("the automatan inside a procesor has a cachee but not a koshar")
	matches, stats, err := a.RunContext(context.Background(), text)
	if err != nil {
		log.Fatal(err)
	}
	// A fuzzy automaton reports once per matching end position; collapse
	// consecutive reports of the same word for display.
	lastEnd := map[int]int64{0: -10, 1: -10, 2: -10}
	for _, m := range matches {
		if m.Offset-lastEnd[m.Pattern] > 3 {
			fmt.Printf("≈%q ends near offset %d\n", words[m.Pattern], m.Offset)
		}
		lastEnd[m.Pattern] = m.Offset
	}
	fmt.Printf("\n%d Levenshtein STEs in %d partitions; %d total reports on %d symbols\n",
		a.States(), a.Partitions(), stats.Matches, stats.Cycles)
}
