// Quickstart: compile a small rule set, scan a string, inspect the
// modeled hardware characteristics.
package main

import (
	"context"
	"fmt"
	"log"

	ca "cacheautomaton"
)

func main() {
	rules := []string{
		"cat",         // rule 0: plain literal
		"dog.*food",   // rule 1: content with a gap
		"bir[dst]{2}", // rule 2: class + counted repeat
	}
	a, err := ca.CompileRegex(rules, ca.Options{})
	if err != nil {
		log.Fatal(err)
	}

	input := []byte("the cat watched a dog eat bird food; then the dog found cat food")
	matches, stats, err := a.RunContext(context.Background(), input)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("rule %d matched, ending at offset %d\n", m.Pattern, m.Offset)
	}
	fmt.Printf("\nmapped %d states into %d partition(s) (%.3f MB of last-level cache)\n",
		a.States(), a.Partitions(), a.CacheUsageMB())
	fmt.Printf("operating at %.1f GHz → %.0f Gb/s line rate\n", a.FrequencyGHz(), a.ThroughputGbps())
	fmt.Printf("this %d-symbol scan: %.1f ns on hardware, %.1f pJ/symbol\n",
		stats.Cycles, stats.ModeledSeconds*1e9, stats.EnergyPJPerSymbol)
}
