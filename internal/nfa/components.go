package nfa

import (
	"cmp"
	"slices"
)

// Component is one weakly-connected component of the transition graph:
// the atomic mapping unit of the compiler (paper §3.1 — "Since these
// connected components have no state transitions between them, they can be
// treated as atomic units by the mapping algorithm").
type Component struct {
	// States lists member state IDs in ascending order.
	States []StateID
}

// Size returns the number of states in the component.
func (c Component) Size() int { return len(c.States) }

// ConnectedComponents returns the weakly-connected components of the NFA,
// sorted by ascending size (the order the greedy packer consumes them,
// §3.3), together with a state→component-index map.
func (n *NFA) ConnectedComponents() ([]Component, []int) {
	parent := make([]int32, len(n.States))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for u := range n.States {
		for _, v := range n.States[u].Out {
			union(int32(u), int32(v))
		}
	}
	// Number the components by first appearance and count their sizes;
	// idx[r] is root r's component plus one.
	idx := make([]int32, len(n.States))
	compOf := make([]int, len(n.States))
	var sizes []int
	for i := range n.States {
		r := find(int32(i))
		if idx[r] == 0 {
			sizes = append(sizes, 0)
			idx[r] = int32(len(sizes))
		}
		c := int(idx[r]) - 1
		sizes[c]++
		compOf[i] = c
	}
	// Sort components ascending by size. Numbering by first appearance
	// is ascending first state, so a stable sort keeps that as the tie
	// order.
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sizes[a], sizes[b]) })
	// Cut every component's state list from one slab, in sorted order.
	sorted := make([]Component, len(sizes))
	newIdx := make([]int, len(sizes))
	at := make([]int, len(sizes)) // where each component's next state goes
	slab := make([]StateID, len(n.States))
	off := 0
	for newI, oldI := range order {
		sz := sizes[oldI]
		sorted[newI].States = slab[off : off+sz : off+sz]
		newIdx[oldI], at[oldI] = newI, off
		off += sz
	}
	for i, c := range compOf {
		slab[at[c]] = StateID(i)
		at[c]++
		compOf[i] = newIdx[c]
	}
	return sorted, compOf
}

// Stats summarizes an NFA the way the paper's Table 1 does.
type Stats struct {
	States              int
	Edges               int
	ConnectedComponents int
	LargestCC           int
	StartStates         int
	ReportStates        int
	MaxFanOut           int
	MaxFanIn            int
	AvgFanOut           float64
}

// ComputeStats derives the Table 1 structural columns for the NFA.
func (n *NFA) ComputeStats() Stats {
	st := Stats{States: len(n.States)}
	comps, _ := n.ConnectedComponents()
	st.ConnectedComponents = len(comps)
	for _, c := range comps {
		if c.Size() > st.LargestCC {
			st.LargestCC = c.Size()
		}
	}
	fanIn := make([]int, len(n.States))
	for i := range n.States {
		s := &n.States[i]
		st.Edges += len(s.Out)
		if len(s.Out) > st.MaxFanOut {
			st.MaxFanOut = len(s.Out)
		}
		if s.Start != NoStart {
			st.StartStates++
		}
		if s.Report {
			st.ReportStates++
		}
		for _, v := range s.Out {
			fanIn[v]++
		}
	}
	for _, f := range fanIn {
		if f > st.MaxFanIn {
			st.MaxFanIn = f
		}
	}
	if st.States > 0 {
		st.AvgFanOut = float64(st.Edges) / float64(st.States)
	}
	return st
}

// Subgraph extracts the induced sub-NFA over the given states (typically a
// connected component). Edges leaving the set are dropped. It returns the
// sub-NFA and a map from new IDs back to the original IDs.
func (n *NFA) Subgraph(states []StateID) (*NFA, []StateID) {
	toNew := make(map[StateID]StateID, len(states))
	orig := make([]StateID, len(states))
	sub := New()
	for i, id := range states {
		s := n.States[id]
		s.Out = nil
		toNew[id] = StateID(i)
		orig[i] = id
		sub.States = append(sub.States, s)
	}
	for _, id := range states {
		for _, v := range n.States[id].Out {
			if nv, ok := toNew[v]; ok {
				sub.AddEdge(toNew[id], nv)
			}
		}
	}
	return sub, orig
}
