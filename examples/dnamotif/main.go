// dnamotif: motif search in genomic sequences — the paper's bioinformatics
// workload (§1, Protomata/Weeder-style motif discovery). Scans a synthetic
// genome for degenerate motifs written in IUPAC-ish class notation.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	ca "cacheautomaton"
)

func main() {
	// Degenerate DNA motifs: classes encode ambiguity codes
	// (e.g. [AG] = purine "R", [CT] = pyrimidine "Y").
	motifs := []string{
		"TATA[AT]A[AT]",         // TATA box
		"GG[CT]CAATCT",          // CAAT box
		"[AG]CCGCC[AG]",         // GC-rich element
		"CACGTG",                // E-box
		"TT[AG]AC[AT]{2}[AG]TG", // gapped composite site
	}
	a, err := ca.CompileRegex(motifs, ca.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Synthetic genome with planted promoter elements.
	r := rand.New(rand.NewSource(42))
	genome := make([]byte, 100_000)
	for i := range genome {
		genome[i] = "ACGT"[r.Intn(4)]
	}
	copy(genome[12345:], "TATAAAAA")
	copy(genome[50000:], "CACGTG")
	copy(genome[77777:], "GGTCAATCT")

	matches, stats, err := a.RunContext(context.Background(), genome)
	if err != nil {
		log.Fatal(err)
	}
	names := []string{"TATA box", "CAAT box", "GC element", "E-box", "composite"}
	for _, m := range matches {
		fmt.Printf("%-10s found ending at position %d\n", names[m.Pattern], m.Offset)
	}
	fmt.Printf("\n%d bp scanned in %.1f µs (modeled) — %.1f Gb/s line rate\n",
		stats.Cycles, stats.ModeledSeconds*1e6, a.ThroughputGbps())
	fmt.Printf("avg %.2f active states/cycle, %.1f pJ/symbol\n",
		stats.AvgActiveStates, stats.EnergyPJPerSymbol)
}
