package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnersDistinctAndOrdered(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Add(n)
	}
	for i := 0; i < 100; i++ {
		owners := r.Owners(fmt.Sprintf("key%d", i), 3)
		if len(owners) != 3 {
			t.Fatalf("Owners returned %d nodes, want 3", len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %q in %v", o, owners)
			}
			seen[o] = true
		}
	}
	if got := r.Owners("k", 10); len(got) != 4 {
		t.Fatalf("asking for more owners than members returned %d, want all 4", len(got))
	}
	if got := NewRing(8).Owners("k", 1); len(got) != 0 {
		t.Fatalf("empty ring returned owners %v", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(64)
	nodes := []string{"n1", "n2", "n3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 12000
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("sess/c%08d", i), 1)[0]]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.1f%% of keys; virtual nodes should keep shares near 33%%: %v", n, share*100, counts)
		}
	}
}

// TestRingMinimalMovement is the consistent-hashing property: removing
// one member only moves the keys it owned, and re-adding it restores
// the original placement exactly (which is what makes a node rejoin
// cheap — its old arcs come back and the rebalancer moves only its own
// sessions home).
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		r.Add(n)
	}
	const keys = 4000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owners(fmt.Sprintf("k%d", i), 1)[0]
	}
	r.Remove("n2")
	moved := 0
	for i := range before {
		after := r.Owners(fmt.Sprintf("k%d", i), 1)[0]
		if before[i] == "n2" {
			if after == "n2" {
				t.Fatalf("key still owned by removed node")
			}
			continue
		}
		if after != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed node moved; consistent hashing must move only the removed node's keys", moved)
	}
	r.Add("n2")
	for i := range before {
		if got := r.Owners(fmt.Sprintf("k%d", i), 1)[0]; got != before[i] {
			t.Fatalf("key k%d owned by %s after rejoin, was %s before the remove", i, got, before[i])
		}
	}
}

func TestRingDeterminism(t *testing.T) {
	build := func() *Ring {
		r := NewRing(32)
		r.Add("x")
		r.Add("y")
		r.Add("z")
		return r
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("rs/rules-%d", i)
		ao, bo := a.Owners(key, 2), b.Owners(key, 2)
		if len(ao) != len(bo) {
			t.Fatal("owner count diverged")
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("placement of %q diverged: %v vs %v", key, ao, bo)
			}
		}
	}
}
