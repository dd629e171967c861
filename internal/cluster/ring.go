// Package cluster composes N cad nodes into one fault-tolerant serving
// system: a router places rule sets and sessions on nodes with a
// consistent-hash ring (virtual nodes), health-checks membership with
// heartbeats (alive → suspect → dead), ships compiled-automaton
// artifacts so replicas never recompile, hands sessions off between
// nodes via checkpoint shipping (suspend/resume made cross-process),
// hedges one-shot /match traffic onto replicas when the primary is
// slow or dead, and serves its routing table at /cluster so clients
// can route directly.
//
// Degradation is graceful and explicit: a dead node's sessions resume
// from their last shipped checkpoint on the successor, overload sheds
// with Retry-After, and a router that can only see a minority of its
// members keeps serving reads but refuses placement changes.
package cluster

import "sort"

// Ring is a consistent-hash ring with virtual nodes. It is a plain
// value structure — not safe for concurrent use — owned and guarded by
// the Router's mutex; reads take an O(log v) binary search.
//
// Virtual nodes smooth the load split: each member is hashed onto the
// ring at vnodes positions, so removing one member redistributes its
// arc across the survivors instead of dumping it on one neighbor, and
// key movement on membership change is minimal (only keys whose
// closest virtual node changed move).
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual-node count per
// member (values <= 0 use 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// Add inserts a member at its vnodes ring positions. Adding a present
// member is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its virtual nodes.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owners returns every member for key in ring order, clockwise from
// the key's ring position: the first is the primary, the rest are the
// successors in failover order.
func (r *Ring) Owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for ; len(out) < len(r.nodes); i++ {
		if i == len(r.points) {
			i = 0
		}
		if node := r.points[i].node; !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// keyHash hashes a placement key onto the ring: FNV-1a mixed through
// SplitMix64 so short, similar keys (s00000001, s00000002, …) land
// uniformly.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// vnodeHash places the i-th virtual node of a member.
func vnodeHash(node string, i int) uint64 {
	return mix64(keyHash(node) ^ mix64(uint64(i)*0x9e3779b97f4a7c15))
}

// mix64 is the SplitMix64 finalizer — a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
