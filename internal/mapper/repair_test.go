package mapper

import (
	"math/rand"
	"slices"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
)

// hubComponent builds one connected component where nHubs hub states all
// fan out to distinct chains — the prefix-merged shape that concentrates
// crossing sources in one partition.
func hubComponent(nHubs, chainsPerHub, chainLen int) *nfa.NFA {
	a := nfa.New()
	root := a.AddState(nfa.State{Class: bitvec.ClassOf('r'), Start: nfa.AllInput})
	for h := 0; h < nHubs; h++ {
		hub := a.AddState(nfa.State{Class: bitvec.ClassOf(byte('a' + h%20))})
		a.AddEdge(root, hub)
		for c := 0; c < chainsPerHub; c++ {
			prev := hub
			for k := 0; k < chainLen; k++ {
				st := nfa.State{Class: bitvec.ClassOf(byte('a' + (h+c+k)%26))}
				if k == chainLen-1 {
					st.Report = true
				}
				cur := a.AddState(st)
				a.AddEdge(prev, cur)
				prev = cur
			}
		}
	}
	return a
}

func TestRepairSpreadsHubSources(t *testing.T) {
	// 30 hubs × 10 chains × 8 states ≈ 2431 states: whatever the split,
	// many hubs land together and must be spread to satisfy the budgets.
	n := hubComponent(30, 10, 8)
	pl, err := Map(n, Config{Design: arch.NewDesign(arch.SpaceOpt), Seed: 1, AllowChainedG4: true})
	if err != nil {
		t.Fatal(err)
	}
	st := pl.ComputeStats()
	if st.MaxOutSignals > 16 || st.MaxInSignals > 16 {
		t.Errorf("budgets exceeded after repair: out=%d in=%d", st.MaxOutSignals, st.MaxInSignals)
	}
}

func TestPeelSplitCoversAllStates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := nfa.New()
		total := 100 + r.Intn(900)
		var prev nfa.StateID = nfa.None
		for i := 0; i < total; i++ {
			st := nfa.State{Class: bitvec.ClassOf(byte('a' + r.Intn(26)))}
			if i == 0 {
				st.Start = nfa.AllInput
			}
			cur := n.AddState(st)
			if prev != nfa.None && r.Intn(10) != 0 {
				n.AddEdge(prev, cur)
			} else if prev != nfa.None {
				n.AddEdge(nfa.StateID(r.Intn(int(cur))), cur)
			}
			prev = cur
		}
		parts := peelSplit(n, arch.PartitionSTEs-2)
		seen := make([]bool, total)
		count := 0
		for _, p := range parts {
			if len(p) > arch.PartitionSTEs {
				t.Fatalf("chunk of %d states exceeds partition size", len(p))
			}
			for _, v := range p {
				if seen[v] {
					t.Fatalf("state %d appears twice", v)
				}
				seen[v] = true
				count++
			}
		}
		if count != total {
			t.Fatalf("peel covered %d of %d states", count, total)
		}
		// All chunks except the last are full.
		for i := 0; i < len(parts)-1; i++ {
			if len(parts[i]) != arch.PartitionSTEs-2 {
				t.Fatalf("chunk %d has %d states, want %d", i, len(parts[i]), arch.PartitionSTEs-2)
			}
		}
	}
}

func TestPeelSplitChainCutsMinimal(t *testing.T) {
	// A pure chain peels into contiguous segments: exactly one crossing
	// edge per boundary.
	n := chainNFA(1000)
	parts := peelSplit(n, arch.PartitionSTEs-2)
	partOf := make([]int, n.NumStates())
	for pi, vs := range parts {
		for _, v := range vs {
			partOf[v] = pi
		}
	}
	cross := 0
	for u := range n.States {
		for _, v := range n.States[u].Out {
			if partOf[u] != partOf[int(v)] {
				cross++
			}
		}
	}
	if cross != len(parts)-1 {
		t.Errorf("chain peel crossings = %d, want %d", cross, len(parts)-1)
	}
}

func TestTightPackReachesDensityBound(t *testing.T) {
	// Simulated k-way output: 5 parts of 130 states from one 650-chain.
	n := chainNFA(650)
	parts := [][]int32{}
	for off := 0; off < 650; off += 130 {
		var p []int32
		for v := off; v < off+130; v++ {
			p = append(p, int32(v))
		}
		parts = append(parts, p)
	}
	packed := tightPack(newBudgetState(n, parts))
	if len(packed) != 3 { // ceil(650/254)
		t.Errorf("tightPack produced %d parts, want 3", len(packed))
	}
	total := 0
	for _, p := range packed {
		if len(p) > arch.PartitionSTEs {
			t.Fatalf("overfull part: %d", len(p))
		}
		total += len(p)
	}
	if total != 650 {
		t.Fatalf("states lost: %d", total)
	}
}

func TestConsolidateMergesSameWaySplits(t *testing.T) {
	// Several ~330-state components: each needs 2 partitions; without
	// consolidation that is 2 per component at ~65% fill. With way sharing
	// + consolidation the total approaches the packing bound.
	n := nfa.New()
	for c := 0; c < 6; c++ {
		one := chainNFA(330)
		n.Union(one)
	}
	pl, err := Map(n, Config{Design: arch.NewDesign(arch.SpaceOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound := arch.CeilDiv(6*330, arch.PartitionSTEs) // 8
	if got := pl.NumPartitions(); got > bound+1 {
		t.Errorf("partitions = %d, want ≤%d (packing bound+1)", got, bound+1)
	}
	if err := pl.Verify(); err != nil {
		t.Fatal(err)
	}
	// Behaviour preserved through consolidation (machine equivalence is
	// covered broadly elsewhere; here check the placement invariants plus
	// stats sanity).
	st := pl.ComputeStats()
	if st.AvgFill < 0.85 {
		t.Errorf("avg fill = %.2f, want ≥0.85 after consolidation", st.AvgFill)
	}
}

func TestBudgetStateMoveConsistency(t *testing.T) {
	n := chainNFA(520)
	parts := [][]int32{{}, {}}
	for v := 0; v < 260; v++ {
		parts[0] = append(parts[0], int32(v))
	}
	for v := 260; v < 520; v++ {
		parts[1] = append(parts[1], int32(v))
	}
	bs := newBudgetState(n, parts)
	bs.move(5, 1)
	if bs.partOf[5] != 1 {
		t.Fatal("partOf not updated")
	}
	if len(bs.parts[0]) != 259 || len(bs.parts[1]) != 261 {
		t.Fatalf("part sizes wrong: %d/%d", len(bs.parts[0]), len(bs.parts[1]))
	}
	// State 5 now crosses for its chain neighbors 4→5 and 5→6, and 259→260
	// crosses as before.
	sig := bs.signals()
	if got := sig.sets[outG1][0]; !slices.Equal(got, []int32{4, 259}) {
		t.Errorf("part 0 drives out from %v, want [4 259]", got)
	}
	if got := sig.sets[inG1][0]; !slices.Equal(got, []int32{5}) {
		t.Errorf("part 0 hears from %v, want [5]", got)
	}
}
