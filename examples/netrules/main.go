// netrules: intrusion-detection-style scanning — the paper's motivating
// network-security workload (§1). Builds a few hundred Snort-like content
// rules, streams synthetic traffic with planted attacks through both Cache
// Automaton designs, and compares their footprint/energy trade-off.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	ca "cacheautomaton"
)

func main() {
	r := rand.New(rand.NewSource(7))

	// A rule set in the style of Snort content signatures.
	var rules []string
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			rules = append(rules, fmt.Sprintf("/cgi-bin/exploit%03d", i))
		case 1:
			rules = append(rules, fmt.Sprintf("x-malware-%03d: [0-9a-f]{8}", i))
		default:
			rules = append(rules, fmt.Sprintf("shell%03d.*payload", i))
		}
	}

	// Synthetic traffic with two planted attacks.
	traffic := make([]byte, 64*1024)
	for i := range traffic {
		traffic[i] = byte(' ' + r.Intn(95))
	}
	copy(traffic[10000:], "/cgi-bin/exploit042")
	copy(traffic[50000:], "shell017 carries a payload")

	for _, design := range []ca.Design{ca.Performance, ca.Space} {
		a, err := ca.CompileRegex(rules, ca.Options{Design: design, CaseInsensitive: true})
		if err != nil {
			log.Fatal(err)
		}
		matches, stats, err := a.RunContext(context.Background(), traffic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d states, %d partitions, %.3f MB cache, %.1f GHz\n",
			design, a.States(), a.Partitions(), a.CacheUsageMB(), a.FrequencyGHz())
		fmt.Printf("   scanned %d KB in %.1f µs (modeled), %.1f pJ/symbol, %.2f W\n",
			len(traffic)/1024, stats.ModeledSeconds*1e6, stats.EnergyPJPerSymbol, stats.AvgPowerW)
		for _, m := range matches {
			fmt.Printf("   ALERT rule %d at offset %d\n", m.Pattern, m.Offset)
		}
	}
}
