package partition

import (
	"math/rand"
	"testing"
)

func TestBuilderCSR(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3) // symmetrized duplicate: weights sum to 5
	b.AddEdge(2, 3, 1)
	b.AddEdge(1, 1, 9) // self loop dropped
	b.SetVertexWeight(3, 7)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	for v := 0; v < 4; v++ {
		if deg := g.XAdj[v+1] - g.XAdj[v]; deg != 1 {
			t.Fatalf("degree of %d = %d, want 1: %v", v, deg, g.XAdj)
		}
	}
	// Edge 0–1 weight 5 visible from both sides.
	if g.Adj[g.XAdj[0]] != 1 || g.AdjW[g.XAdj[0]] != 5 {
		t.Errorf("edge from 0 wrong: %d w=%d", g.Adj[g.XAdj[0]], g.AdjW[g.XAdj[0]])
	}
	if g.Adj[g.XAdj[1]] != 0 || g.AdjW[g.XAdj[1]] != 5 {
		t.Errorf("edge from 1 wrong")
	}
	if g.VW[3] != 7 || g.VW[0] != 1 {
		t.Errorf("vertex weights wrong: %v", g.VW)
	}
	if g.TotalVW() != 1+1+1+7 {
		t.Errorf("TotalVW = %d", g.TotalVW())
	}
}

func TestCut(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 10)
	b.AddEdge(2, 3, 20)
	b.AddEdge(1, 2, 5)
	g := b.Build()
	part := []int32{0, 0, 1, 1}
	if got := Cut(g, part); got != 5 {
		t.Errorf("Cut = %d, want 5", got)
	}
	if got := Cut(g, []int32{0, 1, 0, 1}); got != 35 {
		t.Errorf("Cut = %d, want 30", got)
	}
	w := PartWeights(g, part, 2)
	if w[0] != 2 || w[1] != 2 {
		t.Errorf("PartWeights = %v", w)
	}
}

// clique adds a complete subgraph over the given vertices.
func clique(b *Builder, verts []int32, w int32) {
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			b.AddEdge(verts[i], verts[j], w)
		}
	}
}

func TestBisectTwoCliques(t *testing.T) {
	// Two 16-cliques joined by a single light edge: the optimal bisection
	// cuts exactly that edge.
	b := NewBuilder(32)
	var a, c []int32
	for i := int32(0); i < 16; i++ {
		a = append(a, i)
		c = append(c, 16+i)
	}
	clique(b, a, 10)
	clique(b, c, 10)
	b.AddEdge(0, 16, 1)
	g := b.Build()
	part, err := KWay(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := Cut(g, part); got != 1 {
		t.Errorf("cut = %d, want 1", got)
	}
	w := PartWeights(g, part, 2)
	if w[0] != 16 || w[1] != 16 {
		t.Errorf("weights = %v, want [16 16]", w)
	}
}

func TestKWayFourCliques(t *testing.T) {
	// Four 32-cliques in a light ring: 4-way partition should recover the
	// cliques (cut = the 4 ring edges).
	b := NewBuilder(128)
	groups := make([][]int32, 4)
	for gidx := 0; gidx < 4; gidx++ {
		for i := 0; i < 32; i++ {
			groups[gidx] = append(groups[gidx], int32(gidx*32+i))
		}
		clique(b, groups[gidx], 5)
	}
	for gidx := 0; gidx < 4; gidx++ {
		b.AddEdge(groups[gidx][0], groups[(gidx+1)%4][0], 1)
	}
	g := b.Build()
	part, err := KWay(g, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := Cut(g, part); got > 8 {
		t.Errorf("cut = %d, want ≤ 8 (ideal 4)", got)
	}
	w := PartWeights(g, part, 4)
	for i, wi := range w {
		if wi < 28 || wi > 36 {
			t.Errorf("part %d weight %d, want ≈32 (weights %v)", i, wi, w)
		}
	}
	// Cliques should not be split: every clique lands in one part.
	for gidx, grp := range groups {
		p := part[grp[0]]
		for _, v := range grp {
			if part[v] != p {
				t.Errorf("clique %d split across parts", gidx)
				break
			}
		}
	}
}

func TestKWayGridBalance(t *testing.T) {
	// 32×32 grid, k=8: balance within the 5% default and a sane cut
	// (random assignment would cut ~1700; good partitions cut < 250).
	const side = 32
	b := NewBuilder(side * side)
	id := func(r, c int) int32 { return int32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if r+1 < side {
				b.AddEdge(id(r, c), id(r+1, c), 1)
			}
			if c+1 < side {
				b.AddEdge(id(r, c), id(r, c+1), 1)
			}
		}
	}
	g := b.Build()
	const k = 8
	part, err := KWay(g, k, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, part, k); err != nil {
		t.Fatal(err)
	}
	w := PartWeights(g, part, k)
	target := g.TotalVW() / k
	for i, wi := range w {
		if float64(wi) > float64(target)*1.10+1 {
			t.Errorf("part %d weight %d exceeds 110%% of target %d", i, wi, target)
		}
		if wi == 0 {
			t.Errorf("part %d empty", i)
		}
	}
	if cut := Cut(g, part); cut > 300 {
		t.Errorf("grid cut = %d, want < 300", cut)
	}
}

func TestKWayEdgeCases(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	// k=1: trivial.
	part, err := KWay(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 should assign everything to part 0")
		}
	}
	// k<1: error.
	if _, err := KWay(g, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
	// k > total weight: error.
	if _, err := KWay(g, 6, Options{}); err == nil {
		t.Error("k greater than total vertex weight should error")
	}
	// k == n: every vertex its own part.
	part, err = KWay(g, 5, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := PartWeights(g, part, 5)
	for i, wi := range w {
		if wi != 1 {
			t.Errorf("part %d weight %d, want 1 (%v)", i, wi, w)
		}
	}
}

func TestKWayDisconnectedGraph(t *testing.T) {
	// Partitioner must handle graphs with isolated vertices and several
	// components (big CCs handed to it are connected, but stay robust).
	b := NewBuilder(40)
	for i := int32(0); i < 20; i += 2 {
		b.AddEdge(i, i+1, 1)
	}
	g := b.Build() // 10 edges, 20 isolated vertices
	part, err := KWay(g, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, part, 4); err != nil {
		t.Fatal(err)
	}
	w := PartWeights(g, part, 4)
	for i, wi := range w {
		if wi < 7 || wi > 13 {
			t.Errorf("part %d weight %d out of balance (%v)", i, wi, w)
		}
	}
}

func TestKWayDeterminism(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(6)), 300, 900)
	p1, err1 := KWay(g, 6, Options{Seed: 99})
	p2, err2 := KWay(g, 6, Options{Seed: 99})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed should give identical partitions")
		}
	}
}

func TestKWayRandomGraphsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(400)
		g := randomGraph(r, n, n*3)
		k := 2 + r.Intn(7)
		part, err := KWay(g, k, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, part, k); err != nil {
			t.Fatal(err)
		}
		w := PartWeights(g, part, k)
		var total int64
		maxPart := int64(0)
		for _, wi := range w {
			total += wi
			if wi > maxPart {
				maxPart = wi
			}
		}
		if total != g.TotalVW() {
			t.Fatalf("weights don't sum: %d vs %d", total, g.TotalVW())
		}
		// Loose balance bound: no part more than 1.35× the ideal share + 2
		// (recursive bisection compounds per-level tolerance).
		ideal := float64(total) / float64(k)
		if float64(maxPart) > ideal*1.35+2 {
			t.Errorf("trial %d: part weight %d vs ideal %.1f (k=%d, n=%d)",
				trial, maxPart, ideal, k, n)
		}
	}
}

func TestKWayBetterThanRandomCut(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := randomGeometricGraph(r, 500)
	part, err := KWay(g, 8, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cut := Cut(g, part)
	// Random assignment cuts ~ (1 - 1/k) of edges.
	randomPart := make([]int32, g.NumVertices())
	for i := range randomPart {
		randomPart[i] = int32(r.Intn(8))
	}
	randCut := Cut(g, randomPart)
	if cut*2 > randCut {
		t.Errorf("partitioner cut %d not clearly better than random %d", cut, randCut)
	}
}

func randomGraph(r *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), 1+int32(r.Intn(3)))
	}
	return b.Build()
}

// randomGeometricGraph connects points on a line to nearby points — has
// natural cluster structure a partitioner should exploit.
func randomGeometricGraph(r *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= 4; d++ {
			if i+d < n {
				b.AddEdge(int32(i), int32(i+d), 1)
			}
		}
		if r.Intn(20) == 0 { // occasional long-range edge
			b.AddEdge(int32(i), int32(r.Intn(n)), 1)
		}
	}
	return b.Build()
}

func BenchmarkKWay10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := randomGeometricGraph(r, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(g, 40, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
