package gatesim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/spaceopt"
)

// crossValidate steps the same placement through the gate-level and
// vector simulators one symbol at a time and demands, of every cycle,
// identical matches in identical order (both report by partition, then
// slot) and identical counts of enabled states and active partitions —
// the vector simulator's from the Activity of a one-symbol run, which for
// the partitions it left asleep is closed-form arithmetic.
func crossValidate(t *testing.T, pl *mapper.Placement, input []byte, label string) {
	t.Helper()
	gate, err := New(pl)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fast, err := machine.New(pl, machine.Options{CollectMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	var before machine.ActivityStats
	for i := range input {
		states, parts := gate.Active()
		g := gate.Step(input[i])
		res, err := fast.RunContext(context.Background(), input[i:i+1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		a := res.Activity
		if s, p := a.SumActiveStates-before.SumActiveStates, a.SumActivePartitions-before.SumActivePartitions; s != int64(states) || p != int64(parts) {
			t.Fatalf("%s: cycle %d: gate has %d states enabled in %d partitions, vector %d in %d", label, i, states, parts, s, p)
		}
		before = a
		f := fast.DrainMatches()
		if len(g) != len(f) {
			t.Fatalf("%s: cycle %d: gate %d matches, vector %d", label, i, len(g), len(f))
		}
		for k := range g {
			if g[k] != Match(f[k]) {
				t.Fatalf("%s: cycle %d: match %d differs: %+v vs %+v", label, i, k, g[k], f[k])
			}
		}
	}
}

func TestGateLevelEqualsVectorSimulatorSinglePartition(t *testing.T) {
	n, err := regexc.CompileSet([]string{"cat", "do[gt]", "b.{2}d"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt)})
	if err != nil {
		t.Fatal(err)
	}
	crossValidate(t, pl, []byte("the cat bit a dog and a dot; bxyd"), "single partition")
}

func TestGateLevelEqualsVectorSimulatorMultiPartitionG1(t *testing.T) {
	// 700-state chain: crosses partitions within one way via G-Switch-1.
	a := chain(700)
	pl, err := mapper.Map(a, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 1500)
	for i := range in {
		in[i] = 'a'
	}
	crossValidate(t, pl, in, "G1 chain")
}

func TestGateLevelEqualsVectorSimulatorG4(t *testing.T) {
	// 6000-state chain in CA_S: spans ways, uses G-Switch-4.
	a := chain(6000)
	pl, err := mapper.Map(a, mapper.Config{Design: arch.NewDesign(arch.SpaceOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := pl.ComputeStats()
	if st.G4Edges == 0 {
		t.Skip("mapping used no G4 edges; nothing to validate")
	}
	in := make([]byte, 8000)
	for i := range in {
		in[i] = 'a'
	}
	crossValidate(t, pl, in, "G4 chain")
}

func TestGateLevelRandomWorkloads(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		var pats []string
		for p := 0; p < 20+r.Intn(30); p++ {
			pats = append(pats, fmt.Sprintf("w%02d[ab]{2}%c+", p, 'c'+r.Intn(3)))
		}
		n, err := regexc.CompileSet(pats, regexc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		kind := arch.PerfOpt
		if trial%2 == 1 {
			kind = arch.SpaceOpt
			n = spaceopt.Optimize(n, spaceopt.Options{}).NFA
		}
		pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(kind), Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		in := make([]byte, 400)
		for i := range in {
			in[i] = byte("wabcde0123"[r.Intn(10)])
		}
		crossValidate(t, pl, in, fmt.Sprintf("trial %d (%v)", trial, kind))
	}
}

func TestGateLevelRejectsChained(t *testing.T) {
	a := chain(17000)
	pl, err := mapper.Map(a, mapper.Config{Design: arch.NewDesign(arch.SpaceOpt), Seed: 1, AllowChainedG4: true})
	if err != nil {
		t.Fatal(err)
	}
	if pl.ComputeStats().ChainedEdges == 0 {
		t.Skip("no chained edges")
	}
	if _, err := New(pl); err == nil {
		t.Error("gate-level model should reject chained-G4 placements")
	}
}

func chain(n int) *nfa.NFA {
	a, err := regexc.Compile(fmt.Sprintf("a{%d}", n), 0, regexc.Options{MaxRepeat: n})
	if err != nil {
		panic(err)
	}
	return a
}
