package partition

import (
	"container/heap"
	"math/rand"
)

// ubFactor bounds a part's weight at ubFactor × its target share (5%
// imbalance).
const ubFactor = 1.05

// bisect splits g into parts {0,1} with part-0 target weight targetW0,
// allowing imbalance up to ubFactor. It runs the full multilevel pipeline
// on g.
func bisect(g *Graph, targetW0 int64, rng *rand.Rand, tries int) []int32 {
	levels := coarsen(g, 64, rng)
	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].g
	}
	total := g.TotalVW()

	var best []int32
	var bestCut int64 = 1 << 62
	for t := 0; t < tries; t++ {
		part := growBisection(coarsest, targetW0, rng)
		fmRefine(coarsest, part, targetW0, total, 6)
		cut := Cut(coarsest, part)
		if cut < bestCut || best == nil {
			bestCut = cut
			best = append([]int32(nil), part...)
		}
	}
	part := best
	// Project back up through the levels, refining at each.
	for i := len(levels) - 1; i >= 0; i-- {
		finer := g
		if i > 0 {
			finer = levels[i-1].g
		}
		fine := make([]int32, finer.NumVertices())
		for v := range fine {
			fine[v] = part[levels[i].fineToCoarse[v]]
		}
		part = fine
		fmRefine(finer, part, targetW0, total, 4)
	}
	return part
}

// growBisection seeds part 0 from a random vertex and grows it by BFS until
// it holds targetW0 weight; the rest is part 1. Growing the *smaller* side
// keeps the frontier (and hence the cut) small.
func growBisection(g *Graph, targetW0 int64, rng *rand.Rand) []int32 {
	n := g.NumVertices()
	part := make([]int32, n)
	total := g.TotalVW()
	growPart := int32(0)
	growTarget := targetW0
	if targetW0 > total/2 {
		// Grow side 1 instead.
		growPart = 1
		growTarget = total - targetW0
	}
	for i := range part {
		part[i] = 1 - growPart
	}
	var grown int64
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for grown < growTarget {
		// Find an unvisited seed (handles disconnected graphs).
		seed := int32(-1)
		for trial := 0; trial < 8; trial++ {
			s := int32(rng.Intn(n))
			if !visited[s] {
				seed = s
				break
			}
		}
		if seed == -1 {
			for v := int32(0); int(v) < n; v++ {
				if !visited[v] {
					seed = v
					break
				}
			}
		}
		if seed == -1 {
			break
		}
		queue = append(queue[:0], seed)
		visited[seed] = true
		for len(queue) > 0 && grown < growTarget {
			u := queue[0]
			queue = queue[1:]
			part[u] = growPart
			grown += int64(g.VW[u])
			for e := g.XAdj[u]; e < g.XAdj[u+1]; e++ {
				v := g.Adj[e]
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return part
}

// gainItem is a heap entry for FM refinement (max-gain first, lazily
// invalidated by version counters).
type gainItem struct {
	v       int32
	gain    int64
	version int32
}

type gainHeap []gainItem

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// fmRefine runs Fiduccia–Mattheyses passes on a 2-way partition: repeatedly
// move the highest-gain movable vertex (respecting balance), lock it, and
// at the end of the pass keep the best prefix of moves. Stops after
// maxPasses or when a pass yields no improvement.
func fmRefine(g *Graph, part []int32, targetW0, totalW int64, maxPasses int) {
	n := g.NumVertices()
	maxW0 := int64(float64(targetW0) * ubFactor)
	maxW1 := int64(float64(totalW-targetW0) * ubFactor)
	if maxW0 < targetW0 {
		maxW0 = targetW0
	}
	if maxW1 < totalW-targetW0 {
		maxW1 = totalW - targetW0
	}

	gain := make([]int64, n)
	version := make([]int32, n)
	locked := make([]bool, n)

	computeGain := func(v int32) int64 {
		var ext, internal int64
		pv := part[v]
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			if part[g.Adj[e]] == pv {
				internal += int64(g.AdjW[e])
			} else {
				ext += int64(g.AdjW[e])
			}
		}
		return ext - internal
	}

	for pass := 0; pass < maxPasses; pass++ {
		w := PartWeights(g, part, 2)
		for i := range locked {
			locked[i] = false
		}
		h := make(gainHeap, 0, n)
		for v := int32(0); int(v) < n; v++ {
			gain[v] = computeGain(v)
			version[v]++
			h = append(h, gainItem{v: v, gain: gain[v], version: version[v]})
		}
		heap.Init(&h)

		type move struct {
			v    int32
			from int32
		}
		var moves []move
		var cumGain, bestGain int64
		bestIdx := -1

		for h.Len() > 0 {
			it := heap.Pop(&h).(gainItem)
			v := it.v
			if locked[v] || it.version != version[v] {
				continue
			}
			from := part[v]
			to := 1 - from
			// Balance check.
			vw := int64(g.VW[v])
			if to == 0 && w[0]+vw > maxW0 {
				continue
			}
			if to == 1 && w[1]+vw > maxW1 {
				continue
			}
			// Apply move.
			part[v] = to
			w[from] -= vw
			w[to] += vw
			locked[v] = true
			cumGain += it.gain
			moves = append(moves, move{v: v, from: from})
			if cumGain > bestGain {
				bestGain = cumGain
				bestIdx = len(moves) - 1
			}
			// Update neighbor gains.
			for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
				u := g.Adj[e]
				if locked[u] {
					continue
				}
				gain[u] = computeGain(u)
				version[u]++
				heap.Push(&h, gainItem{v: u, gain: gain[u], version: version[u]})
			}
		}
		// Roll back past the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			part[moves[i].v] = moves[i].from
		}
		if bestGain <= 0 {
			break
		}
	}
}
