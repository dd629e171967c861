package partition

import (
	"fmt"
	"math/rand"
)

// Options tune the partitioner.
type Options struct {
	// Seed drives the internal RNG; partitioning is deterministic for a
	// given seed.
	Seed int64
	// Tries is the number of random initial bisections attempted at the
	// coarsest level (default 4); the best cut wins.
	Tries int
}

func (o Options) tries() int {
	if o.Tries <= 0 {
		return 4
	}
	return o.Tries
}

// KWay partitions g into k parts of nearly equal vertex weight, minimizing
// edge cut, by recursive multilevel bisection. The result assigns every
// vertex a part in [0,k).
func KWay(g *Graph, k int, opts Options) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be ≥ 1, got %d", k)
	}
	n := g.NumVertices()
	part := make([]int32, n)
	if k == 1 {
		return part, nil
	}
	if int64(k) > g.TotalVW() {
		return nil, fmt.Errorf("partition: k=%d exceeds total vertex weight %d", k, g.TotalVW())
	}
	rng := rand.New(rand.NewSource(opts.Seed + 0x9E3779B9))
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	recursiveBisect(g, verts, 0, k, part, opts.tries(), rng)
	if err := Validate(g, part, k); err != nil {
		return nil, err
	}
	return part, nil
}

// recursiveBisect splits the subgraph induced by verts into parts
// [base, base+k), writing assignments into part.
func recursiveBisect(g *Graph, verts []int32, base, k int, part []int32, tries int, rng *rand.Rand) {
	if k == 1 {
		for _, v := range verts {
			part[v] = int32(base)
		}
		return
	}
	kl := k / 2
	kr := k - kl
	sub, orig := induced(g, verts)
	total := sub.TotalVW()
	target0 := total * int64(kl) / int64(k)
	assign := bisect(sub, target0, rng, tries)
	var left, right []int32
	for i, p := range assign {
		if p == 0 {
			left = append(left, orig[i])
		} else {
			right = append(right, orig[i])
		}
	}
	// Degenerate split (can happen on tiny graphs): force a weight split.
	if len(left) == 0 || len(right) == 0 {
		left, right = forcedSplit(g, verts, target0)
	}
	recursiveBisect(g, left, base, kl, part, tries, rng)
	recursiveBisect(g, right, base+kl, kr, part, tries, rng)
}

// forcedSplit deterministically splits verts by cumulative weight when the
// bisection degenerated.
func forcedSplit(g *Graph, verts []int32, target0 int64) (left, right []int32) {
	var acc int64
	for _, v := range verts {
		if acc < target0 || len(verts)-len(right) == 1 {
			left = append(left, v)
			acc += int64(g.VW[v])
		} else {
			right = append(right, v)
		}
	}
	if len(right) == 0 && len(left) > 1 {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	return left, right
}

// induced extracts the subgraph over verts, returning it and the map from
// sub-vertex index to original vertex id.
func induced(g *Graph, verts []int32) (*Graph, []int32) {
	toSub := make(map[int32]int32, len(verts))
	for i, v := range verts {
		toSub[v] = int32(i)
	}
	b := NewBuilder(len(verts))
	for i, v := range verts {
		b.SetVertexWeight(int32(i), g.VW[v])
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			u := g.Adj[e]
			if su, ok := toSub[u]; ok && v < u {
				b.AddEdge(int32(i), su, g.AdjW[e])
			}
		}
	}
	return b.Build(), append([]int32(nil), verts...)
}
