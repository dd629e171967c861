// Package partition is a from-scratch multilevel k-way graph partitioner
// standing in for METIS in the Cache Automaton compiler (paper §3.2: "We
// utilize the open-source graph partitioning framework METIS to solve this
// k-way partitioning problem ... by first coarsening the input connected
// component, performing bisections on the coarsened connected component and
// later refining the partitions produced to minimize the edge cuts").
//
// The implementation follows the same multilevel scheme: heavy-edge-matching
// coarsening, greedy graph-growing initial bisection, Fiduccia–Mattheyses
// boundary refinement during uncoarsening, and recursive bisection for
// k-way. Balance is enforced so partitions have nearly equal vertex weight,
// as the paper requires ("We ensure that METIS produces load-balanced
// partitions with nearly equal number of states per partition").
package partition

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted graph in CSR form. Parallel edges must be
// merged (weights summed) before Build; self-loops are ignored.
type Graph struct {
	// XAdj[i]..XAdj[i+1] indexes Adj/AdjW with vertex i's neighbors.
	XAdj []int32
	// Adj lists neighbor vertices.
	Adj []int32
	// AdjW lists edge weights, parallel to Adj.
	AdjW []int32
	// VW lists vertex weights.
	VW []int32
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.VW) }

// TotalVW returns the sum of vertex weights.
func (g *Graph) TotalVW() int64 {
	var t int64
	for _, w := range g.VW {
		t += int64(w)
	}
	return t
}

// Builder accumulates edges and produces a Graph. Edges added in either
// direction are symmetrized and duplicate edges have their weights summed.
type Builder struct {
	n     int
	vw    []int32
	edges map[[2]int32]int32
}

// NewBuilder returns a Builder for n vertices, all with weight 1.
func NewBuilder(n int) *Builder {
	vw := make([]int32, n)
	for i := range vw {
		vw[i] = 1
	}
	return &Builder{n: n, vw: vw, edges: make(map[[2]int32]int32)}
}

// SetVertexWeight overrides vertex v's weight.
func (b *Builder) SetVertexWeight(v int32, w int32) { b.vw[v] = w }

// AddEdge adds an undirected edge u–v with weight w. Self loops are
// dropped; duplicates accumulate.
func (b *Builder) AddEdge(u, v int32, w int32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]int32{u, v}] += w
}

// Build produces the CSR graph.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n)
	for e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	xadj := make([]int32, b.n+1)
	for i := 0; i < b.n; i++ {
		xadj[i+1] = xadj[i] + deg[i]
	}
	adj := make([]int32, xadj[b.n])
	adjw := make([]int32, xadj[b.n])
	fill := make([]int32, b.n)
	// Deterministic order: sort edge keys.
	keys := make([][2]int32, 0, len(b.edges))
	for e := range b.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, e := range keys {
		w := b.edges[e]
		u, v := e[0], e[1]
		adj[xadj[u]+fill[u]] = v
		adjw[xadj[u]+fill[u]] = w
		fill[u]++
		adj[xadj[v]+fill[v]] = u
		adjw[xadj[v]+fill[v]] = w
		fill[v]++
	}
	return &Graph{XAdj: xadj, Adj: adj, AdjW: adjw, VW: b.vw}
}

// Cut returns the total weight of edges crossing between different parts.
func Cut(g *Graph, part []int32) int64 {
	var cut int64
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for e := g.XAdj[u]; e < g.XAdj[u+1]; e++ {
			v := g.Adj[e]
			if u < v && part[u] != part[v] {
				cut += int64(g.AdjW[e])
			}
		}
	}
	return cut
}

// PartWeights returns the total vertex weight in each of k parts.
func PartWeights(g *Graph, part []int32, k int) []int64 {
	w := make([]int64, k)
	for v, p := range part {
		w[p] += int64(g.VW[v])
	}
	return w
}

// Validate checks that part is a valid assignment of every vertex to [0,k).
func Validate(g *Graph, part []int32, k int) error {
	if len(part) != g.NumVertices() {
		return fmt.Errorf("partition: assignment has %d entries for %d vertices", len(part), g.NumVertices())
	}
	for v, p := range part {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("partition: vertex %d assigned to part %d (k=%d)", v, p, k)
		}
	}
	return nil
}
