package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the ring points each node contributes. 64 keeps the
// largest/smallest ownership arc within a few percent for small
// clusters while the ring stays tiny (N*64 points).
const DefaultVNodes = 64

type ringPoint struct {
	h  uint64
	id string
}

// Ring is an immutable consistent-hash ring over a set of node IDs. A
// key hashes to a point on the ring; the first node point at or after it
// (clockwise) owns the key. Virtual nodes smooth the arcs; ties (hash
// collisions between nodes) break by node ID so every process computes
// the identical ring from the identical member list — routing is a pure
// function, which is what lets the cluster tests demand byte-identical
// merges.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over ids (deduplicated, order-insensitive) with
// vnodes points per node (<= 0 means DefaultVNodes). An empty id set
// yields a ring that owns nothing.
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{}
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: ringHash(fmt.Sprintf("%s#%d", id, v)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Owner returns the node owning key (false on an empty ring).
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id, true
}

// Successor returns the first distinct node clockwise from id's first
// ring point — the peer that replicates id's WAL. False when id is not
// on the ring or has no distinct successor (a one-node ring).
func (r *Ring) Successor(id string) (string, bool) {
	start := -1
	for i, p := range r.points {
		if p.id == id {
			start = i
			break
		}
	}
	if start < 0 {
		return "", false
	}
	for step := 1; step < len(r.points); step++ {
		p := r.points[(start+step)%len(r.points)]
		if p.id != id {
			return p.id, true
		}
	}
	return "", false
}

// ringHash places a string on the ring: FNV-1a for the stable stream
// fold, then a splitmix64-style finalizer because raw FNV clumps badly
// on short, similar keys (vnode labels, hostnames) and a clumped ring
// defeats the whole point of vnode smoothing. Both stages are pure and
// platform-stable, which the golden-table conformance suite depends on.
func ringHash(s string) uint64 {
	z := fnv1a64(s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// fnv1a64 is 64-bit FNV-1a over s. The 32-bit sibling, stats.FNV1a,
// picks a local shard for a host (durable.ShardOf); this one feeds ring
// placement.
func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
