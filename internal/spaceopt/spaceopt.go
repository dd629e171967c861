// Package spaceopt implements the NFA state-merging optimizations behind
// the space-optimized Cache Automaton design (paper §3.1: "many patterns
// share common prefixes ... and these common prefixes can be matched once
// for all connected components together. Eliminating redundancies helps
// reduce the space footprint of the NFA. It also reduces the average number
// of active states, leading to reduction in dynamic energy consumption.").
//
// Two language-preserving merges are applied to a homogeneous NFA until
// fixpoint:
//
//   - prefix merge: states with identical symbol class, start type, report
//     behaviour and identical *enabler* (incoming-source) sets are enabled
//     under exactly the same conditions and can be collapsed, unioning
//     their out-edges;
//   - suffix merge: states with identical symbol class, start type, report
//     behaviour and identical out-edge sets trigger exactly the same
//     downstream behaviour and can be collapsed, unioning their enablers.
//
// Merging preserves the set of (offset, report-code) match events, though
// duplicate simultaneous reports of the same code collapse into one — the
// hardware output buffer records report events, not state multiplicity
// (§2.8). As the paper notes, merging tends to fuse connected components
// into fewer, larger ones, which is why CA_S needs the richer k-way
// partitioned interconnect.
package spaceopt

import (
	"sort"
	"strconv"
	"strings"

	"cacheautomaton/internal/nfa"
)

// Result describes one optimization run.
type Result struct {
	// NFA is the merged automaton.
	NFA *nfa.NFA
	// Remap maps original state IDs to merged state IDs.
	Remap []nfa.StateID
	// Rounds is how many merge rounds ran before fixpoint.
	Rounds int
	// PrefixMerged and SuffixMerged count states eliminated by each rule.
	PrefixMerged, SuffixMerged int
}

// Options tune the optimizer.
type Options struct {
	// PrefixOnly disables suffix merging (the paper's cited state-merging
	// work is prefix-centric; suffix merging is an extension).
	PrefixOnly bool
}

// Optimize runs merge rounds until fixpoint and returns the reduced NFA.
// The input is not modified.
func Optimize(n *nfa.NFA, opts Options) *Result {
	cur := n.Clone()
	remap := identity(n.NumStates())
	res := &Result{}
	for round := 0; ; round++ {
		before := cur.NumStates()
		var m []nfa.StateID
		cur, m = mergeOnce(cur, false)
		res.PrefixMerged += before - cur.NumStates()
		compose(remap, m)
		if !opts.PrefixOnly {
			mid := cur.NumStates()
			cur, m = mergeOnce(cur, true)
			res.SuffixMerged += mid - cur.NumStates()
			compose(remap, m)
		}
		if cur.NumStates() == before {
			res.Rounds = round + 1
			break
		}
	}
	res.NFA = cur
	res.Remap = remap
	return res
}

func identity(n int) []nfa.StateID {
	m := make([]nfa.StateID, n)
	for i := range m {
		m[i] = nfa.StateID(i)
	}
	return m
}

func compose(remap []nfa.StateID, next []nfa.StateID) {
	for i, v := range remap {
		remap[i] = next[v]
	}
}

// mergeOnce performs one grouping pass. bySuffix selects out-set grouping
// (suffix merge) instead of in-set grouping (prefix merge). Returns the
// merged NFA and the old→new map.
func mergeOnce(n *nfa.NFA, bySuffix bool) (*nfa.NFA, []nfa.StateID) {
	numStates := n.NumStates()
	var neighborList [][]nfa.StateID
	if bySuffix {
		neighborList = make([][]nfa.StateID, numStates)
		for i := range n.States {
			neighborList[i] = n.States[i].Out
		}
	} else {
		neighborList = n.InEdges()
	}

	groups := make(map[string][]nfa.StateID, numStates)
	var keyBuf strings.Builder
	order := make([]string, 0, numStates)
	for i := 0; i < numStates; i++ {
		s := &n.States[i]
		keyBuf.Reset()
		for _, w := range s.Class {
			keyBuf.WriteString(strconv.FormatUint(w, 16))
			keyBuf.WriteByte(',')
		}
		keyBuf.WriteByte(byte('0' + s.Start))
		if s.Report {
			keyBuf.WriteString("R")
			keyBuf.WriteString(strconv.FormatInt(int64(s.ReportCode), 10))
		}
		keyBuf.WriteByte('|')
		// Self-loops are compared positionally, not by id: states that are
		// identical except for looping on *themselves* (the ".*" gap states
		// of SPM/Dotstar-style patterns) are bisimilar and must merge —
		// this is where most of the paper's SPM reduction comes from.
		ns := make([]nfa.StateID, 0, len(neighborList[i]))
		self := false
		for _, v := range neighborList[i] {
			if v == nfa.StateID(i) {
				self = true
			} else {
				ns = append(ns, v)
			}
		}
		if self {
			keyBuf.WriteString("@;")
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		for _, v := range ns {
			keyBuf.WriteString(strconv.FormatInt(int64(v), 36))
			keyBuf.WriteByte(';')
		}
		k := keyBuf.String()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], nfa.StateID(i))
	}

	remap := make([]nfa.StateID, numStates)
	out := nfa.New()
	for _, k := range order {
		members := groups[k]
		rep := members[0]
		s := n.States[rep]
		s.Out = nil
		id := out.AddState(s)
		for _, m := range members {
			remap[m] = id
		}
	}
	// Re-add edges under the mapping (deduplicated by AddEdge).
	for i := 0; i < numStates; i++ {
		for _, v := range n.States[i].Out {
			out.AddEdge(remap[i], remap[v])
		}
	}
	return out, remap
}
