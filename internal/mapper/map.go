package mapper

import (
	"fmt"
	"sort"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/partition"
	"cacheautomaton/internal/telemetry"
)

// Config controls the mapping.
type Config struct {
	// Design selects CA_P or CA_S parameters (required).
	Design *arch.Design
	// Seed makes the k-way partitioner deterministic.
	Seed int64
	// AllowChainedG4 permits mapping components larger than one G-Switch-4
	// group (64 partitions) by modeling cross-group edges as chained G4
	// hops. The paper's switches have no switch-to-switch wiring; this
	// relaxation is documented in DESIGN.md. Default true for the space
	// design; ignored for CA_P (which never uses G4).
	AllowChainedG4 bool
	// Trace, when non-nil, receives the mapping stages as spans —
	// "map.components", "map.large", "map.pack", "map.cross", and a
	// "backoff.<level>" span around each rung MapOptimized tries — with
	// state counts, split retries, repair moves, k-way commits, repair
	// rescues and consolidation merges as attributes.
	Trace *telemetry.ReqTrace
}

// waysPerSlice is how many ways per slice the NFA may occupy (§2.9).
const waysPerSlice = 8

// maxSplitRetries bounds how often a large connected component is
// re-split with another k when switch budgets fail.
const maxSplitRetries = 12

// partitionsPerWay returns the way capacity for the design: CA_P uses only
// the A[16]=0 arrays of each 16 KB sub-array (§3.1), i.e. 8 partitions per
// way; CA_S uses all 16.
func partitionsPerWay(d *arch.Design) int {
	if d.Kind == arch.PerfOpt {
		return 8
	}
	return 16
}

// Map compiles the NFA onto the Cache Automaton.
func Map(n *nfa.NFA, cfg Config) (*Placement, error) {
	if cfg.Design == nil {
		return nil, fmt.Errorf("mapper: Config.Design is required")
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("mapper: invalid NFA: %w", err)
	}
	m := &builder{
		cfg: cfg,
		pl: &Placement{
			NFA:              n,
			Design:           cfg.Design,
			PartitionOf:      make([]int32, n.NumStates()),
			SlotOf:           make([]int32, n.NumStates()),
			WaysPerSlice:     waysPerSlice,
			PartitionsPerWay: partitionsPerWay(cfg.Design),
		},
	}
	for i := range m.pl.PartitionOf {
		m.pl.PartitionOf[i] = -1
		m.pl.SlotOf[i] = -1
	}

	sc := cfg.Trace.StartStage("map.components")
	comps, _ := n.ConnectedComponents() // ascending by size
	var small, big []nfa.Component
	for _, c := range comps {
		if c.Size() <= arch.PartitionSTEs {
			small = append(small, c)
		} else {
			big = append(big, c)
		}
	}
	sc.SetAttr("states", int64(n.NumStates()))
	sc.SetAttr("components", int64(len(comps)))
	sc.SetAttr("large", int64(len(big)))
	sc.End()

	// Large components first: they need contiguous way real estate.
	// Process largest first so alignment holes are created early and then
	// backfilled by small components. A component that cannot be mapped
	// still closes the stage with its counters: a failed CA_S rung's
	// retries and repairs are where its time went.
	sl := cfg.Trace.StartStage("map.large")
	sort.SliceStable(big, func(a, b int) bool { return big[a].Size() > big[b].Size() })
	var err error
	for _, c := range big {
		if err = m.mapLargeComponent(c); err != nil {
			break
		}
	}
	sl.SetAttr("split_retries", int64(m.splitRetries))
	sl.SetAttr("repair_moves", int64(m.repairMoves))
	sl.SetAttr("packed_commits", int64(m.packedCommits))
	sl.SetAttr("kway_commits", int64(m.kwayCommits))
	sl.SetAttr("rescued", int64(m.rescued))
	sl.End()
	if err != nil {
		return nil, err
	}

	sp := cfg.Trace.StartStage("map.pack")
	m.packSmallComponents(small)
	m.assignWaysForUnplaced()
	m.consolidate()
	sp.SetAttr("partitions", int64(len(m.pl.Partitions)))
	sp.SetAttr("ways", int64(len(m.wayFill)))
	sp.SetAttr("merges", int64(m.merges))
	sp.End()

	sx := cfg.Trace.StartStage("map.cross")
	m.pl.DeriveCross()
	// The physical budgets are re-checked after final placement; memoized,
	// so the machines built from this placement do not check again.
	if err := m.pl.VerifyOnce(); err != nil {
		sx.End()
		return nil, err
	}
	sx.SetAttr("cross_edges", int64(len(m.pl.Cross)))
	sx.End()
	return m.pl, nil
}

// builder holds mapping state.
type builder struct {
	cfg Config
	pl  *Placement
	// wayFill[w] = partitions already placed in way w.
	wayFill []int
	// pending are partition indices not yet assigned a way (small-CC
	// partitions, placed last into any free slot).
	pending []int
	// Compile-telemetry counts across all large components: k-way
	// re-splits, repair moves, commits of a tight-packed and of a raw
	// k-way split (the rest are peel splits), commits that needed repair,
	// and partition pairs consolidation merged.
	splitRetries, repairMoves, packedCommits, kwayCommits, rescued, merges int
}

// newPartition allocates a partition; way < 0 defers way assignment.
func (m *builder) newPartition(way int) int {
	slots := make([]nfa.StateID, arch.PartitionSTEs)
	for i := range slots {
		slots[i] = nfa.None
	}
	idx := len(m.pl.Partitions)
	m.pl.Partitions = append(m.pl.Partitions, Partition{Slots: slots, Way: way})
	if way >= 0 {
		m.fillWay(way)
	} else {
		m.pending = append(m.pending, idx)
	}
	return idx
}

func (m *builder) fillWay(way int) {
	for way >= len(m.wayFill) {
		m.wayFill = append(m.wayFill, 0)
	}
	m.wayFill[way]++
}

// place puts state s into partition pi at the next free slot.
func (m *builder) place(s nfa.StateID, pi int) {
	p := &m.pl.Partitions[pi]
	if p.Used >= len(p.Slots) {
		panic("mapper: partition overflow")
	}
	slot := p.Used
	p.Slots[slot] = s
	p.Used++
	m.pl.PartitionOf[s] = int32(pi)
	m.pl.SlotOf[s] = int32(slot)
}

// packSmallComponents greedily packs components ≤256 states, smallest
// first (§3.3). Self-contained components have no switch traffic, so they
// first backfill free slots left by large-component partitions, then open
// new (way-deferred) partitions.
func (m *builder) packSmallComponents(small []nfa.Component) {
	cur := -1
	backfill := 0 // next existing partition to consider
	for _, c := range small {
		if cur == -1 || m.pl.Partitions[cur].Used+c.Size() > arch.PartitionSTEs {
			cur = -1
			for ; backfill < len(m.pl.Partitions); backfill++ {
				if m.pl.Partitions[backfill].Used+c.Size() <= arch.PartitionSTEs {
					cur = backfill
					break
				}
			}
			if cur == -1 {
				cur = m.newPartition(-1)
			}
		}
		for _, s := range c.States {
			m.place(s, cur)
		}
	}
}

// mapLargeComponent splits a component of >256 states across partitions
// and places them into ways, trying in order: a DFS peel split (full
// chunks, small cuts on tree-like components), then balanced k-way
// partitioning with tight packing, then raw balanced k-way — retrying
// with larger k until the interconnect budgets hold.
func (m *builder) mapLargeComponent(c nfa.Component) error {
	sub, orig := m.pl.NFA.Subgraph(c.States)
	gb := partition.NewBuilder(sub.NumStates())
	for u := range sub.States {
		for _, v := range sub.States[u].Out {
			gb.AddEdge(int32(u), int32(v), 1)
		}
	}
	g := gb.Build()

	d := m.cfg.Design
	ppw := partitionsPerWay(d)

	// Attempt 0: DFS peel into nearly-full chunks.
	if parts := peelSplit(sub, arch.PartitionSTEs-2); m.tryCommit(sub, orig, parts, ppw) == nil {
		return nil
	}

	// Fallback: balanced k-way with growing k.
	slack := arch.PartitionSTEs * 9 / 10
	if c.Size() > 8*arch.PartitionSTEs {
		slack = arch.PartitionSTEs * 8 / 10
	}
	k := arch.CeilDiv(c.Size(), slack)
	kMin := arch.CeilDiv(c.Size(), arch.PartitionSTEs)
	var lastErr error
	for attempt := 0; attempt < maxSplitRetries; attempt++ {
		m.splitRetries++
		tryK := k
		if attempt%2 == 1 && kMin < k {
			tryK = k - 1 - attempt/2
			if tryK < kMin {
				tryK = kMin
			}
		}
		tries := 4 + attempt
		if tries > 8 {
			tries = 8
		}
		assign, err := partition.KWay(g, tryK, partition.Options{
			Seed:  m.cfg.Seed + int64(attempt)*101,
			Tries: tries,
		})
		if err != nil {
			return fmt.Errorf("mapper: component of %d states: %w", c.Size(), err)
		}
		parts := groupBy(assign, tryK)
		if over := oversized(parts); over >= 0 {
			lastErr = fmt.Errorf("part %d has %d states (>%d)", over, len(parts[over]), arch.PartitionSTEs)
			if tryK == k {
				grown := arch.CeilDiv(k*len(parts[over]), arch.PartitionSTEs)
				if grown <= k {
					grown = k + 1
				}
				k = grown
			}
			continue
		}
		if d.Kind == arch.PerfOpt && tryK > ppw {
			lastErr = fmt.Errorf("component needs %d partitions but CA_P confines a component to one way (%d partitions)", tryK, ppw)
			continue
		}
		// Tight-packed layout first, then the raw balanced split.
		packed := tightPack(newBudgetState(sub, deepCopyParts(parts)))
		if lastErr = m.tryCommit(sub, orig, packed, ppw); lastErr == nil {
			m.packedCommits++
			return nil
		}
		if lastErr = m.tryCommit(sub, orig, parts, ppw); lastErr == nil {
			m.kwayCommits++
			return nil
		}
		k++
	}
	return fmt.Errorf("mapper: cannot satisfy switch budgets for component of %d states after %d attempts (design %v): %v",
		c.Size(), maxSplitRetries, d.Kind, lastErr)
}

// tryCommit validates (and budget-repairs) one candidate split; on success
// it allocates ways and places the states, otherwise the builder is left
// untouched.
func (m *builder) tryCommit(sub *nfa.NFA, orig []nfa.StateID, parts [][]int32, ppw int) error {
	d := m.cfg.Design
	if over := oversized(parts); over >= 0 {
		return fmt.Errorf("part %d has %d states (>%d)", over, len(parts[over]), arch.PartitionSTEs)
	}
	if d.Kind == arch.PerfOpt && len(parts) > ppw {
		return fmt.Errorf("component needs %d partitions but CA_P confines a component to one way (%d partitions)", len(parts), ppw)
	}
	if g4Groups := arch.CeilDiv(len(parts), ppw*4); g4Groups > 1 && !m.cfg.AllowChainedG4 {
		return fmt.Errorf("component spans %d G4 groups and chained-G4 mode is disabled", g4Groups)
	}
	bs := newBudgetState(sub, parts)
	for oi, pi := range bs.order() {
		bs.wayOf[pi] = oi / ppw
	}
	err := repairBudgets(bs, d, 400)
	m.repairMoves += bs.moves
	if err != nil {
		return err
	}
	if bs.moves > 0 {
		m.rescued++
	}
	ways := m.allocateWays(len(bs.parts), ppw)
	for oi, pi := range bs.order() {
		way := ways[oi/ppw]
		np := m.newPartition(way)
		for _, v := range bs.parts[pi] {
			m.place(orig[v], np)
		}
	}
	return nil
}

// deepCopyParts clones a part assignment.
func deepCopyParts(parts [][]int32) [][]int32 {
	out := make([][]int32, len(parts))
	for i, p := range parts {
		out[i] = append([]int32(nil), p...)
	}
	return out
}

// groupBy converts a vertex→part assignment into per-part vertex lists.
func groupBy(assign []int32, k int) [][]int32 {
	parts := make([][]int32, k)
	for v, p := range assign {
		parts[p] = append(parts[p], int32(v))
	}
	return parts
}

func oversized(parts [][]int32) int {
	for i, p := range parts {
		if len(p) > arch.PartitionSTEs {
			return i
		}
	}
	return -1
}

// allocateWays reserves ways for nParts partitions of a large component:
// contiguous fresh ways, aligned to a G4-group boundary when the component
// spans multiple ways.
func (m *builder) allocateWays(nParts, ppw int) []int {
	nWays := arch.CeilDiv(nParts, ppw)
	if nWays == 1 {
		// Single-way components share ways first-fit, like the greedy
		// packer shares partitions.
		for w := 0; w < len(m.wayFill); w++ {
			if m.wayFill[w]+nParts <= ppw {
				return []int{w}
			}
		}
		return []int{len(m.wayFill)}
	}
	start := len(m.wayFill)
	if start%4 != 0 {
		start += 4 - start%4 // align to G4 group
	}
	ways := make([]int, nWays)
	for i := range ways {
		ways[i] = start + i
	}
	return ways
}

// assignWaysForUnplaced places the way-deferred small-component partitions
// into remaining free way slots, first-fit.
func (m *builder) assignWaysForUnplaced() {
	ppw := m.pl.PartitionsPerWay
	way := 0
	for _, pi := range m.pending {
		for {
			if way >= len(m.wayFill) {
				m.wayFill = append(m.wayFill, 0)
			}
			if m.wayFill[way] < ppw {
				break
			}
			way++
		}
		m.pl.Partitions[pi].Way = way
		m.wayFill[way]++
	}
	m.pending = nil
}
