package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"sync"
)

// DefaultVNodes is the default number of virtual nodes per replica. Share
// imbalance on a vnode ring shrinks as ~1/sqrt(vnodes); at 256 vnodes every
// replica's share of the keyspace stays within ±10% of uniform through
// 8-replica fleets, and membership changes move close to the theoretical
// 1/N of keys.
const DefaultVNodes = 256

// Ring is a consistent-hash ring with virtual nodes. Each member node owns
// VNodes points on a 64-bit circle; a key is served by the node owning the
// first point clockwise from the key's hash. All methods are safe for
// concurrent use; lookups take a read lock only.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the circle and its owner.
type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<=0 uses DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// VNodes reports the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Add inserts a node's virtual points into the ring. Adding a member twice
// is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a node's virtual points. Keys it owned flow to the next
// point clockwise — spread across the survivors, not dumped on one node.
// Removing a non-member is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
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

// Has reports ring membership.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Len reports the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the node owning key — the owner of the first virtual point
// clockwise from it. ok is false on an empty ring.
func (r *Ring) Lookup(key uint64) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(key)].node, true
}

// Successors returns up to n distinct nodes in ring order starting at the
// key's owner: the failover candidates for the key, primary first. The walk
// preserves ring order so a key's failover target is stable too.
func (r *Ring) Successors(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// search returns the index of the first point with hash >= key, wrapping to
// 0 past the end. Callers hold at least the read lock.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// vnodeHash places virtual point i of a node on the circle: FNV-64a over
// the member name and index, scattered through a splitmix64 finalizer so
// consecutive indices land far apart.
func vnodeHash(node string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	h.Write(b[:])
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that turns
// the structured FNV output into uniformly spread ring positions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyHash is the routing key for an encoded query: FNV-64a over the float
// bits of x, scattered by the same finalizer as the ring points. Every τ of
// one x — point requests and the full curve alike — lands on the same ring
// position, so each query's curve lives in one replica's cache. A collision
// here only costs affinity, never correctness: replicas key their caches on
// the exact packed x.
func KeyHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return mix64(h.Sum64())
}
