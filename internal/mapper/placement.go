// Package mapper is the Cache Automaton compiler (paper §3): it takes a
// homogeneous NFA with tens of thousands of states and maps it onto
// partitions of 256 STEs stored in LLC SRAM arrays, respecting the
// connectivity constraints of the hierarchical switch interconnect:
//
//   - states in one partition are fully connected through the partition's
//     local switch (280×256);
//   - at most 16 STEs per partition may drive transitions to other
//     partitions in the same way through G-Switch-1, and each partition
//     accepts at most 16 such incoming signals;
//   - at most 8 STEs per partition may drive transitions to partitions in
//     other ways through G-Switch-4 (space design only), and each
//     partition accepts at most 8 such incoming signals.
//
// Connected components ≤ 256 states are packed greedily, smallest first
// (§3.3); larger components are split with multilevel k-way graph
// partitioning (package partition, standing in for METIS) and re-split with
// larger k until the switch budgets hold (§3.2).
package mapper

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/nfa"
)

// Via identifies which switch carries an inter-partition transition.
type Via uint8

const (
	// ViaLocal marks an intra-partition edge (local switch only).
	ViaLocal Via = iota
	// ViaG1 marks a within-way edge through G-Switch-1.
	ViaG1
	// ViaG4 marks a cross-way edge through G-Switch-4.
	ViaG4
	// ViaChained marks a cross-G4-group edge. The paper's interconnect has
	// no switch-to-switch wiring; components too large for one G4 group
	// only map in the relaxed "chained" mode (see Config.AllowChainedG4),
	// which models such edges as two G4 hops.
	ViaChained
)

func (v Via) String() string {
	switch v {
	case ViaLocal:
		return "local"
	case ViaG1:
		return "G1"
	case ViaG4:
		return "G4"
	case ViaChained:
		return "chained-G4"
	default:
		return fmt.Sprintf("Via(%d)", uint8(v))
	}
}

// Partition is one 256-STE mapping unit: two 4 KB SRAM arrays plus a local
// switch (paper Fig. 2 (a)).
type Partition struct {
	// Slots maps slot index (STE column) → state ID, nfa.None when empty.
	Slots []nfa.StateID
	// Way is the global way index the partition is placed in (way =
	// sliceIndex × waysPerSlice + wayInSlice).
	Way int
	// Used counts occupied slots.
	Used int
}

// CrossEdge is one inter-partition transition programmed into a global
// switch.
type CrossEdge struct {
	// Src and Dst are state IDs.
	Src, Dst nfa.StateID
	// SrcPartition/DstPartition and SrcSlot/DstSlot locate them.
	SrcPartition, DstPartition int
	SrcSlot, DstSlot           int
	// Via is the switch level carrying the edge (ViaG1/ViaG4/ViaChained).
	Via Via
}

// Placement is the compiler output: the "bit-stream containing information
// about the NFA state to cache array mapping and the configuration enable
// bits" (§3).
type Placement struct {
	// NFA is the mapped automaton (post space-optimization for CA_S).
	NFA *nfa.NFA
	// Design is the architecture the mapping targets.
	Design *arch.Design
	// Partitions lists all allocated partitions.
	Partitions []Partition
	// PartitionOf and SlotOf locate each state.
	PartitionOf []int32
	SlotOf      []int32
	// Cross lists all inter-partition edges with their switch assignment.
	Cross []CrossEdge
	// WaysPerSlice is how many ways per slice the mapping may use (§2.9:
	// NFA computation is carried out in 4–8 ways of each slice).
	WaysPerSlice int
	// PartitionsPerWay is the way capacity (8 in CA_P — Array_L only; 16
	// in CA_S).
	PartitionsPerWay int

	// verifyOnce memoizes Verify for VerifyOnce. A Placement is immutable
	// once built, so one verification covers every machine built from it.
	verifyOnce sync.Once
	verifyErr  error
}

// VerifyOnce runs Verify at most once per Placement and returns the
// memoized result on subsequent calls. Machine construction uses it so a
// pool of N machines over one placement pays the full structural check
// once instead of N times — the dominant cold-start cost after compile.
func (p *Placement) VerifyOnce() error {
	p.verifyOnce.Do(func() { p.verifyErr = p.Verify() })
	return p.verifyErr
}

// NumPartitions returns the number of allocated partitions.
func (p *Placement) NumPartitions() int { return len(p.Partitions) }

// UtilizationMB returns the cache footprint (Fig. 8).
func (p *Placement) UtilizationMB() float64 {
	return arch.UtilizationMB(len(p.Partitions))
}

// WaysUsed returns the number of (global) ways touched.
func (p *Placement) WaysUsed() int {
	max := -1
	for i := range p.Partitions {
		if p.Partitions[i].Way > max {
			max = p.Partitions[i].Way
		}
	}
	return max + 1
}

// SlicesUsed returns how many LLC slices the mapping spans.
func (p *Placement) SlicesUsed() int {
	return arch.CeilDiv(p.WaysUsed(), p.WaysPerSlice)
}

// via is the cross-edge rule (§2.4): partitions of one way meet in its
// G-Switch-1, ways of one group of four in their G-Switch-4, and anything
// farther apart needs chained G4 hops.
func (p *Placement) via(src, dst int32) Via {
	sw, dw := p.Partitions[src].Way, p.Partitions[dst].Way
	switch {
	case sw == dw:
		return ViaG1
	case sw/4 == dw/4:
		return ViaG4
	}
	return ViaChained
}

// DeriveCross programs Cross: one entry, in state order, for every NFA
// edge whose ends sit in different partitions, at the switch level the
// final way assignment implies. Cross holds nothing the NFA, the location
// tables and the ways do not determine, which is why caformat does not
// store it.
func (p *Placement) DeriveCross() {
	crossing := 0
	for u := range p.NFA.States {
		for _, v := range p.NFA.States[u].Out {
			if p.PartitionOf[u] != p.PartitionOf[v] {
				crossing++
			}
		}
	}
	p.Cross = make([]CrossEdge, 0, crossing)
	for u := range p.NFA.States {
		for _, v := range p.NFA.States[u].Out {
			pu, pv := p.PartitionOf[u], p.PartitionOf[v]
			if pu == pv {
				continue
			}
			p.Cross = append(p.Cross, CrossEdge{
				Src: nfa.StateID(u), Dst: v,
				SrcPartition: int(pu), DstPartition: int(pv),
				SrcSlot: int(p.SlotOf[u]), DstSlot: int(p.SlotOf[v]),
				Via: p.via(pu, pv),
			})
		}
	}
}

// Stats summarizes a placement.
type Stats struct {
	Partitions    int
	WaysUsed      int
	SlicesUsed    int
	UtilizationMB float64
	// LocalEdges / G1Edges / G4Edges / ChainedEdges count transitions by
	// switch level.
	LocalEdges, G1Edges, G4Edges, ChainedEdges int
	// MaxOutSignals / MaxInSignals are the worst per-partition budget use
	// (distinct source STEs driving out; distinct external sources coming
	// in).
	MaxOutSignals, MaxInSignals int
	// AvgFill is the mean slot occupancy across partitions.
	AvgFill float64
}

// ComputeStats derives placement statistics.
func (p *Placement) ComputeStats() Stats {
	st := Stats{
		Partitions:    len(p.Partitions),
		WaysUsed:      p.WaysUsed(),
		SlicesUsed:    p.SlicesUsed(),
		UtilizationMB: p.UtilizationMB(),
	}
	st.LocalEdges = p.NFA.NumEdges() - len(p.Cross)
	for _, ce := range p.Cross {
		switch ce.Via {
		case ViaG1:
			st.G1Edges++
		case ViaG4:
			st.G4Edges++
		case ViaChained:
			st.ChainedEdges++
		}
	}
	st.MaxOutSignals, st.MaxInSignals = p.signals().maxima()
	if len(p.Partitions) > 0 {
		used := 0
		for i := range p.Partitions {
			used += p.Partitions[i].Used
		}
		st.AvgFill = float64(used) / float64(len(p.Partitions)*arch.PartitionSTEs)
	}
	return st
}

// Verify checks all structural invariants of the placement:
// every state placed exactly once, slot bookkeeping consistent, every NFA
// edge representable by the programmed interconnect, and all switch
// budgets respected. It is the mapper's own acceptance test.
func (p *Placement) Verify() error {
	n := p.NFA.NumStates()
	if len(p.PartitionOf) != n || len(p.SlotOf) != n {
		return fmt.Errorf("mapper: location tables sized %d/%d for %d states",
			len(p.PartitionOf), len(p.SlotOf), n)
	}
	for s := 0; s < n; s++ {
		pi, si := int(p.PartitionOf[s]), int(p.SlotOf[s])
		if pi < 0 || pi >= len(p.Partitions) {
			return fmt.Errorf("mapper: state %d in invalid partition %d", s, pi)
		}
		if si < 0 || si >= len(p.Partitions[pi].Slots) {
			return fmt.Errorf("mapper: state %d in invalid slot %d", s, si)
		}
		if got := p.Partitions[pi].Slots[si]; got != nfa.StateID(s) {
			return fmt.Errorf("mapper: slot (%d,%d) holds %d, expected %d", pi, si, got, s)
		}
	}
	for i := range p.Partitions {
		used := 0
		for _, s := range p.Partitions[i].Slots {
			if s != nfa.None {
				used++
			}
		}
		if used != p.Partitions[i].Used {
			return fmt.Errorf("mapper: partition %d Used=%d but %d slots occupied", i, p.Partitions[i].Used, used)
		}
	}
	// Cross must be exactly the NFA's inter-partition edges: each entry one
	// of them, none twice, as many as the signal ledger's pass over the
	// edges finds.
	sig := p.signals()
	crossSet := make(map[[2]nfa.StateID]bool, len(p.Cross))
	for _, ce := range p.Cross {
		if p.PartitionOf[ce.Src] != int32(ce.SrcPartition) || p.PartitionOf[ce.Dst] != int32(ce.DstPartition) {
			return fmt.Errorf("mapper: cross edge %d→%d partition mismatch", ce.Src, ce.Dst)
		}
		if p.SlotOf[ce.Src] != int32(ce.SrcSlot) || p.SlotOf[ce.Dst] != int32(ce.DstSlot) {
			return fmt.Errorf("mapper: cross edge %d→%d slot mismatch", ce.Src, ce.Dst)
		}
		key := [2]nfa.StateID{ce.Src, ce.Dst}
		if crossSet[key] {
			return fmt.Errorf("mapper: duplicate cross edge %d→%d", ce.Src, ce.Dst)
		}
		crossSet[key] = true
		if !slices.Contains(p.NFA.States[ce.Src].Out, ce.Dst) {
			return fmt.Errorf("mapper: cross edge %d→%d is not an NFA edge", ce.Src, ce.Dst)
		}
		if ce.SrcPartition == ce.DstPartition {
			return fmt.Errorf("mapper: cross edge %d→%d within one partition", ce.Src, ce.Dst)
		}
		// Via must match the physical placement.
		if want := p.via(int32(ce.SrcPartition), int32(ce.DstPartition)); ce.Via != want {
			return fmt.Errorf("mapper: cross edge %d→%d via %v, placement implies %v", ce.Src, ce.Dst, ce.Via, want)
		}
	}
	if len(p.Cross) != sig.crossing {
		return fmt.Errorf("mapper: %d edges cross partitions but %d are programmed", sig.crossing, len(p.Cross))
	}
	if _, _, err := sig.over(p.Design); err != nil {
		return fmt.Errorf("mapper: %w", err)
	}
	return nil
}

// signals counts the placement's signals over its real ways.
func (p *Placement) signals() *signals {
	return countSignals(p.NFA, p.PartitionOf, len(p.Partitions), func(i int) int { return p.Partitions[i].Way })
}

// PeakPowerHintW is the compiler's coarse peak-power estimate for OS
// scheduling (§2.9: "Based on the number of cache arrays, ways, slices
// allocated for NFA computation ... the compiler can provide coarse-grained
// peak-power estimates (hints) to guide OS scheduling"): every allocated
// partition active every cycle at the design's operating frequency.
func (p *Placement) PeakPowerHintW() float64 {
	return p.Design.PowerW(arch.ActivityCounts{ActivePartitions: float64(len(p.Partitions))})
}

// WriteDOT renders the placement's partition graph: one node per
// partition (labeled with way and occupancy), one edge per G-switch
// signal path, colored by switch level. Useful for eyeballing case
// studies like §3.3's EntityResolution figure.
func (p *Placement) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "placement"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n", name); err != nil {
		return err
	}
	for pi := range p.Partitions {
		part := &p.Partitions[pi]
		if _, err := fmt.Fprintf(w, "  p%d [label=\"P%d\\nway %d\\n%d/%d STEs\"];\n",
			pi, pi, part.Way, part.Used, len(part.Slots)); err != nil {
			return err
		}
	}
	// Aggregate cross edges per (src, dst, via).
	type key struct {
		src, dst int
		via      Via
	}
	counts := map[key]int{}
	for _, ce := range p.Cross {
		counts[key{ce.SrcPartition, ce.DstPartition, ce.Via}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		if keys[a].dst != keys[b].dst {
			return keys[a].dst < keys[b].dst
		}
		return keys[a].via < keys[b].via
	})
	color := map[Via]string{ViaG1: "blue", ViaG4: "red", ViaChained: "orange"}
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "  p%d -> p%d [label=\"%d\",color=%s];\n",
			k.src, k.dst, counts[k], color[k.via]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
