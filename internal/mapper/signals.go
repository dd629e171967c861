package mapper

import (
	"fmt"
	"slices"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/nfa"
)

// The four signal sets of a partition, in the order budgets are checked.
// A signal is one distinct source state with an edge leaving its
// partition (§2.4): G1 when the target partition is in the same way, G4
// otherwise. A partition may drive and accept G1SignalsPerPartition G1
// signals and G4SignalsPerPartition G4 signals.
const (
	outG1 = iota // sources in the partition driving another of its way
	inG1         // sources in another partition of the way driving into it
	outG4        // sources in the partition driving another way
	inG4         // sources in another way driving into it
)

// signals is the per-partition signal ledger: each partition's distinct
// sources of each kind, in ascending state order. It is counted in one
// pass over the edges, of a candidate split over virtual ways or of a
// placement over real ones, and it is all that budget repair,
// consolidation, Verify and ComputeStats know of the switch budgets.
type signals struct {
	n        *nfa.NFA
	partOf   []int32         // state → partition
	wayOf    func(p int) int // partition → way
	sets     [4][][]int32    // kind → partition → sources
	crossing int             // edges between partitions, as counted
}

func countSignals(n *nfa.NFA, partOf []int32, parts int, wayOf func(p int) int) *signals {
	s := &signals{n: n, partOf: partOf, wayOf: wayOf}
	for kind := range s.sets {
		s.sets[kind] = make([][]int32, parts)
	}
	for u := range n.States {
		pu := int(partOf[u])
		for _, v := range n.States[u].Out {
			pv := int(partOf[v])
			if pu == pv {
				continue
			}
			s.crossing++
			out, in := outG1, inG1
			if wayOf(pu) != wayOf(pv) {
				out, in = outG4, inG4
			}
			s.add(out, pu, int32(u))
			s.add(in, pv, int32(u))
		}
	}
	return s
}

// add records src in a set. Sources arrive in ascending order, so a
// repeat is always the last one.
func (s *signals) add(kind, p int, src int32) {
	if set := s.sets[kind][p]; len(set) == 0 || set[len(set)-1] != src {
		s.sets[kind][p] = append(set, src)
	}
}

// limit is d's budget for one set of the given kind.
func limit(kind int, d *arch.Design) int {
	if kind == outG1 || kind == inG1 {
		return d.G1SignalsPerPartition
	}
	return d.G4SignalsPerPartition
}

// over finds the first set over d's budget — partitions in order, each
// one's sets in the order outG1, inG1, outG4, inG4 — and returns it with
// an error naming it, or a nil error when every partition fits.
func (s *signals) over(d *arch.Design) (p, kind int, err error) {
	for p := range s.sets[outG1] {
		for kind := range s.sets {
			if len(s.sets[kind][p]) > limit(kind, d) {
				level, out := "G1", outG1
				if kind >= outG4 {
					level, out = "G4", outG4
				}
				return p, kind, fmt.Errorf("partition %d exceeds %s budget (out %d, in %d, limit %d)",
					p, level, len(s.sets[out][p]), len(s.sets[out+1][p]), limit(kind, d))
			}
		}
	}
	return 0, 0, nil
}

// merge folds partition j's sets into partition i's if the two, in one
// way, fit d's budgets as one partition, and reports whether they did.
// Sources keep their identity and their way, so no other partition's
// sets change; only the signals between i and j become local.
func (s *signals) merge(i, j int, d *arch.Design) bool {
	outside := func(p int32) bool { return int(p) != i && int(p) != j }
	var m [4][]int32
	for kind := range m {
		m[kind] = union(s.sets[kind][i], s.sets[kind][j])
	}
	// A G1 source still signals if it drives a third partition of the way;
	// G4 signals cross ways, so none of them runs between i and j.
	way := s.wayOf(i)
	m[outG1] = slices.DeleteFunc(m[outG1], func(src int32) bool {
		return !slices.ContainsFunc(s.n.States[src].Out, func(v nfa.StateID) bool {
			return outside(s.partOf[v]) && s.wayOf(int(s.partOf[v])) == way
		})
	})
	m[inG1] = slices.DeleteFunc(m[inG1], func(src int32) bool { return !outside(s.partOf[src]) })
	for kind := range m {
		if len(m[kind]) > limit(kind, d) {
			return false
		}
	}
	for kind := range m {
		s.sets[kind][i], s.sets[kind][j] = m[kind], nil
	}
	return true
}

// maxima returns the largest number of distinct sources a partition
// drives out through either switch level, and the largest number arriving.
func (s *signals) maxima() (out, in int) {
	for p := range s.sets[outG1] {
		out = max(out, len(union(s.sets[outG1][p], s.sets[outG4][p])))
		in = max(in, len(union(s.sets[inG1][p], s.sets[inG4][p])))
	}
	return out, in
}

// union returns the distinct sources of two lists, in ascending order.
func union(a, b []int32) []int32 {
	u := slices.Concat(a, b)
	slices.Sort(u)
	return slices.Compact(u)
}
