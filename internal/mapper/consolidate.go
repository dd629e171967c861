package mapper

import (
	"sort"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/nfa"
)

// peelSplit cuts a component into DFS-contiguous chunks of up to
// chunkSize states. On the tree-like components rule compilation produces
// (tries, chains, alternation fans), a DFS segment has a small frontier,
// so the cut — and hence the switch-signal budgets — stays small while
// the leading chunks are completely full. The k-way partitioner remains
// the fallback for components where peeling cuts too much.
func peelSplit(sub *nfa.NFA, chunkSize int) [][]int32 {
	n := sub.NumStates()
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	var stack []int32
	// DFS from start states first, then any unvisited state (the
	// component is connected only weakly, so edge direction can strand
	// states).
	push := func(v int32) {
		if !visited[v] {
			visited[v] = true
			stack = append(stack, v)
		}
	}
	for _, s := range sub.StartStates() {
		push(int32(s))
	}
	for seed := 0; ; seed++ {
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			out := sub.States[v].Out
			for i := len(out) - 1; i >= 0; i-- {
				push(int32(out[i]))
			}
		}
		if len(order) == n {
			break
		}
		for ; seed < n; seed++ {
			if !visited[seed] {
				push(int32(seed))
				break
			}
		}
	}
	var parts [][]int32
	for off := 0; off < n; off += chunkSize {
		end := off + chunkSize
		if end > n {
			end = n
		}
		parts = append(parts, append([]int32(nil), order[off:end]...))
	}
	return parts
}

// consolidate merges same-way partitions whose occupancies fit together
// and whose combined switch budgets still hold. Merging two same-way
// partitions never affects any other partition's budgets (sources keep
// their identity and their way), and edges between the two become local —
// so a simple pairwise check suffices. This recovers the packing density
// the paper's greedy packer gets for small components on the partitions
// produced by large-component splitting.
func (m *builder) consolidate() {
	pl := m.pl
	sig := pl.signals()
	// Group partitions by way, smallest first.
	byWay := map[int][]int{}
	for pi := range pl.Partitions {
		byWay[pl.Partitions[pi].Way] = append(byWay[pl.Partitions[pi].Way], pi)
	}
	dead := make([]bool, len(pl.Partitions))
	for _, group := range byWay {
		sort.Slice(group, func(a, b int) bool {
			if pl.Partitions[group[a]].Used != pl.Partitions[group[b]].Used {
				return pl.Partitions[group[a]].Used < pl.Partitions[group[b]].Used
			}
			return group[a] < group[b]
		})
		for x := 0; x < len(group); x++ {
			j := group[x]
			if dead[j] {
				continue
			}
			for y := len(group) - 1; y > x; y-- {
				i := group[y]
				if dead[i] || pl.Partitions[i].Used+pl.Partitions[j].Used > arch.PartitionSTEs {
					continue
				}
				if !sig.merge(i, j, pl.Design) {
					continue
				}
				m.mergePartitions(i, j)
				m.merges++
				dead[j] = true
				break
			}
		}
	}
	// Compact the partition list.
	remap := make([]int32, len(pl.Partitions))
	var kept []Partition
	for pi := range pl.Partitions {
		if dead[pi] {
			remap[pi] = -1
			continue
		}
		remap[pi] = int32(len(kept))
		kept = append(kept, pl.Partitions[pi])
	}
	pl.Partitions = kept
	for s := range pl.PartitionOf {
		pl.PartitionOf[s] = remap[pl.PartitionOf[s]]
	}
	// Way fill bookkeeping is recomputed implicitly by later passes; the
	// builder is done allocating at this point.
}

// mergePartitions moves partition j's states, in slot order, into the
// next free slots of partition i.
func (m *builder) mergePartitions(i, j int) {
	pj := &m.pl.Partitions[j]
	for slot, s := range pj.Slots {
		if s != nfa.None {
			m.place(s, i)
			pj.Slots[slot] = nfa.None
		}
	}
	pj.Used = 0
}
