package mapper

import (
	"sort"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/nfa"
)

// budgetState is one candidate split of a component during tight packing
// and budget repair: its parts, where each state is, and the virtual way
// each part would occupy (way 0 until the caller assigns them).
type budgetState struct {
	sub    *nfa.NFA
	parts  [][]int32
	partOf []int32
	inAdj  [][]int32 // state → in-neighbors
	wayOf  []int     // part → virtual way
	// moves counts successful repair relocations (compile telemetry).
	moves int
}

func newBudgetState(sub *nfa.NFA, parts [][]int32) *budgetState {
	b := &budgetState{sub: sub, parts: parts, partOf: make([]int32, sub.NumStates()), wayOf: make([]int, len(parts))}
	for pi, vs := range parts {
		for _, v := range vs {
			b.partOf[v] = int32(pi)
		}
	}
	b.inAdj = make([][]int32, sub.NumStates())
	for u := range sub.States {
		for _, v := range sub.States[u].Out {
			b.inAdj[v] = append(b.inAdj[v], int32(u))
		}
	}
	return b
}

// signals counts the split's signals over its virtual ways.
func (b *budgetState) signals() *signals {
	return countSignals(b.sub, b.partOf, len(b.parts), func(p int) int { return b.wayOf[p] })
}

// order linearizes the parts so heavily-communicating parts land in the
// same way ("the densely connected arrays for CC4 ... are also allocated
// to arrays in the same way", §3.3): greedy max-connectivity-to-placed
// ordering.
func (b *budgetState) order() []int {
	k := len(b.parts)
	conn := make([][]int, k)
	for i := range conn {
		conn[i] = make([]int, k)
	}
	for u := range b.sub.States {
		for _, v := range b.sub.States[u].Out {
			pu, pv := b.partOf[u], b.partOf[v]
			if pu != pv {
				conn[pu][pv]++
				conn[pv][pu]++
			}
		}
	}
	placed := make([]bool, k)
	order := make([]int, 0, k)
	// Start from the part with highest total connectivity.
	best, bestC := 0, -1
	for i := 0; i < k; i++ {
		t := 0
		for j := 0; j < k; j++ {
			t += conn[i][j]
		}
		if t > bestC {
			best, bestC = i, t
		}
	}
	order = append(order, best)
	placed[best] = true
	for len(order) < k {
		next, nextC := -1, -1
		for i := 0; i < k; i++ {
			if placed[i] {
				continue
			}
			t := 0
			for _, o := range order {
				t += conn[i][o]
			}
			if t > nextC {
				next, nextC = i, t
			}
		}
		order = append(order, next)
		placed[next] = true
	}
	return order
}

// move relocates state v to part q, keeping parts/partOf consistent.
func (b *budgetState) move(v int32, q int) {
	p := b.partOf[v]
	vs := b.parts[p]
	for i, w := range vs {
		if w == v {
			b.parts[p] = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	b.parts[q] = append(b.parts[q], v)
	b.partOf[v] = int32(q)
}

// repairBudgets spreads crossing-signal sources across partitions when a
// part exceeds its switch budgets — the situation prefix-merged rule sets
// create, where many hub states (shared prefixes fanning out to rule
// bodies in other partitions) land in one partition. Each repair move
// relocates one source of the first set over budget to the least-loaded
// partition that can take it, and the split is counted again. Returns nil
// when all budgets hold, within maxMoves moves.
func repairBudgets(b *budgetState, d *arch.Design, maxMoves int) error {
	for {
		sig := b.signals()
		part, kind, err := sig.over(d)
		if err == nil || b.moves == maxMoves || !b.relieve(sig, part, kind, d) {
			return err
		}
	}
}

// relieve moves the first source of the violating set, in ascending state
// order, that bestHome finds a home for, and reports whether one moved.
// For out violations the set holds sources in this part; for in
// violations the external sources, and moving one into this part or its
// way localizes its signal.
func (b *budgetState) relieve(sig *signals, part, kind int, d *arch.Design) bool {
	isOut := kind == outG1 || kind == outG4
	for _, s := range sig.sets[kind][part] {
		if q := b.bestHome(sig, s, part, isOut, d); q >= 0 {
			b.move(s, q)
			b.moves++
			return true
		}
	}
	return false
}

// bestHome finds a partition q that can absorb state s and relieve the
// violating part: for out violations any other part with room and signal
// slack; for in violations, prefer parts in the violating part's way (or
// the part itself) so the arriving signal becomes G1/local.
func (b *budgetState) bestHome(sig *signals, s int32, violating int, isOut bool, d *arch.Design) int {
	cur := int(b.partOf[s])
	best, bestScore := -1, -1
	for q := range b.parts {
		if q == cur || len(b.parts[q]) >= arch.PartitionSTEs {
			continue
		}
		// Headroom on the receiving side (conservative: the moved state
		// may add one source signal of each kind).
		if len(sig.sets[outG1][q]) >= limit(outG1, d) || len(sig.sets[outG4][q]) >= limit(outG4, d) {
			continue
		}
		score := 0
		if !isOut {
			// Localize the incoming signal: same part > same way > other.
			switch {
			case q == violating:
				score += 4
			case b.wayOf[q] == b.wayOf[violating]:
				score += 2
			}
		}
		// Prefer parts holding many of s's neighbors (keeps cut small).
		for _, v := range b.sub.States[s].Out {
			if int(b.partOf[v]) == q {
				score++
			}
		}
		// Prefer emptier parts.
		score += (arch.PartitionSTEs - len(b.parts[q])) / 64
		if score > bestScore {
			best, bestScore = q, score
		}
	}
	return best
}

// tightPack compacts the parts of one component toward full 256-slot
// partitions: whole-part merges while two parts fit together, then state
// spilling from the smallest part into the fullest non-full part (states
// with the most neighbors in the target move first, keeping the cut
// small). The paper's greedy packer achieves near-full partitions for
// small components; this gives split components the same density. It
// returns the non-empty parts; their budgets are validated (and repaired)
// by the caller afterwards.
func tightPack(b *budgetState) [][]int32 {
	moveBudget := 8 * b.sub.NumStates()
	for moveBudget > 0 {
		// Whole-part merge: smallest two that fit together.
		is := sortedBySize(b.parts)
		merged := false
		for x := 0; x < len(is) && !merged; x++ {
			a := is[x]
			if len(b.parts[a]) == 0 {
				continue
			}
			for y := x + 1; y < len(is); y++ {
				c := is[y]
				if len(b.parts[c]) == 0 {
					continue
				}
				if len(b.parts[a])+len(b.parts[c]) <= arch.PartitionSTEs {
					for _, v := range append([]int32(nil), b.parts[a]...) {
						b.move(v, c)
						moveBudget--
					}
					merged = true
					break
				}
			}
		}
		if merged {
			continue
		}
		// Drain: spill the smallest drainable part along adjacency into
		// parts with room. Partial drains still make progress (they enable
		// whole-part merges on the next pass).
		progress := false
		for _, i := range sortedBySize(b.parts) {
			if len(b.parts[i]) == 0 {
				continue
			}
			for len(b.parts[i]) > 0 && moveBudget > 0 {
				v := b.bestSpill(i)
				q := b.bestSpillTarget(v, i)
				if q < 0 {
					break
				}
				b.move(v, q)
				moveBudget--
				progress = true
			}
			if len(b.parts[i]) == 0 {
				break // one part eliminated; rescan for merges
			}
		}
		if !progress {
			break
		}
	}
	var kept [][]int32
	for _, p := range b.parts {
		if len(p) > 0 {
			kept = append(kept, p)
		}
	}
	return kept
}

func sortedBySize(parts [][]int32) []int {
	is := make([]int, len(parts))
	for i := range is {
		is[i] = i
	}
	sort.Slice(is, func(a, b int) bool {
		if len(parts[is[a]]) != len(parts[is[b]]) {
			return len(parts[is[a]]) < len(parts[is[b]])
		}
		return is[a] < is[b]
	})
	return is
}

// neighbors iterates v's out- and in-neighbors.
func (b *budgetState) neighbors(v int32, fn func(w int32)) {
	for _, w := range b.sub.States[v].Out {
		fn(int32(w))
	}
	for _, w := range b.inAdj[v] {
		fn(w)
	}
}

// bestSpill picks the state of part p with the most neighbors outside p
// (cheapest to move away).
func (b *budgetState) bestSpill(p int) int32 {
	best, bestScore := b.parts[p][0], -1<<30
	for _, v := range b.parts[p] {
		score := 0
		b.neighbors(v, func(w int32) {
			if int(b.partOf[w]) == p {
				score--
			} else {
				score++
			}
		})
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// bestSpillTarget picks a part with space that holds at least one of v's
// neighbors — spilling only along edges keeps the cut (and hence the
// switch-signal budgets) from exploding. A few slots stay free so the
// budget-repair pass can still move states afterwards.
func (b *budgetState) bestSpillTarget(v int32, exclude int) int {
	const spillCap = arch.PartitionSTEs - 2
	best, bestScore := -1, 0
	for q := range b.parts {
		if q == exclude || len(b.parts[q]) >= spillCap {
			continue
		}
		score := 0
		b.neighbors(v, func(w int32) {
			if int(b.partOf[w]) == q {
				score++
			}
		})
		if score == 0 {
			continue // adjacency required
		}
		score = score*4 + len(b.parts[q])/32
		if score > bestScore {
			best, bestScore = q, score
		}
	}
	return best
}
