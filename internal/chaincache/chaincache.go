// Package chaincache is the report path's derived-analysis memo: a
// sharded, bounded cache mapping one derivation input — a (host,
// authoritative-chain, observed-chain) triple — to its derived value,
// with single-flight derivation under concurrent misses.
//
// The paper's data motivates it directly: 15 proxy products account for
// the overwhelming majority of the ~41k intercepted chains among 2.9M
// probes, so the distinct-chain cardinality on the report path is tiny
// compared to report volume. A collector that re-parses both DER chains
// and re-runs the mismatch anatomy for every report does the same work
// millions of times; memoized by chain content it does that work once per
// distinct chain and serves the rest from a lock-striped hit.
//
// Keying is two-tier, engineered for the hit path. A seeded 64-bit
// content hash (hash/maphash, flood-resistant) selects the shard and
// bucket; every hit then verifies the stored inputs byte-for-byte against
// the caller's before the cached value is served — with a pointer-equality
// fast path for the authoritative chain, which the collector registers
// once and passes by reference forever. That makes the equivalence
// guarantee unconditional: a cached value is only ever returned for
// byte-identical inputs, so it is byte-for-byte the value derivation
// would have produced (DESIGN.md §8; the paper compares chains by DER
// bytes, x509util.ChainsEqual). No cryptographic collision-freeness
// assumption is involved, and the hit costs one fast hash plus one memcmp
// instead of a SHA-256 over both chains.
//
// The mechanics — sharding, the global cap, recency, single flight,
// counters — live once, in LRU (lru.go). Cache is its content-keyed front;
// proxyengine.ForgeCache is its host-keyed one.
package chaincache

import (
	"bytes"
	"hash/maphash"
	"sync/atomic"
)

// DefaultCap bounds the cache when New receives cap <= 0. The paper's
// field data saw ~6.5k distinct substitute issuers across 12.3M tests;
// distinct (host, chain) pairs stay within this bound with room for churn.
const DefaultCap = 16384

// Cache is a sharded, bounded, single-flight memo from (host, auth chain,
// observed chain) to V: a typed front over LRU (which owns sharding, the
// cap, recency, single flight and "errors are not cached"), keyed by the
// 64-bit content hash. What this front adds is the byte-exact check:
//
//   - Every value the LRU hands back — a hit, or a flight this caller
//     waited on — carries the inputs it was derived from, and is served
//     only if they equal the caller's byte for byte.
//   - A 64-bit hash collision between distinct inputs (astronomically
//     rare; counted in Stats.Collisions) degrades to deriving without
//     caching — never to serving the wrong value.
type Cache[V any] struct {
	lru  *LRU[uint64, *entry[V]]
	seed maphash.Seed

	collisions atomic.Uint64
}

// entry stores the full derivation input alongside the value: hits and
// flight waiters verify against it byte-for-byte. The authoritative chain
// is stored by reference (the collector's registered slice, stable for
// the process lifetime, which is also what keeps the pointer fast path in
// chainsEqual hot). The observed chain is the cache's own copy, cloned
// once on the miss path — callers may hand obs slices backed by
// recycled decode arenas, and a stored reference would silently change
// bytes under the key when the arena is reused. Immutable once returned
// by the load, so it is read outside the shard lock.
type entry[V any] struct {
	host string
	auth [][]byte
	obs  [][]byte
	val  V
}

// New builds a cache holding at most cap values across `shards`
// lock-striped partitions (defaults applied when <= 0).
func New[V any](cap, shards int) *Cache[V] {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Cache[V]{
		lru:  NewLRU[uint64, *entry[V]](cap, shards, func(hash uint64) uint64 { return hash }),
		seed: maphash.MakeSeed(),
	}
}

// hashInputs computes the seeded content hash over the full input,
// length-framing every component so no two distinct inputs collide by
// concatenation. Collision-safety is not load-bearing (hits verify
// bytes); the seed exists so hostile chains cannot aim for a bucket.
func (c *Cache[V]) hashInputs(host string, auth, obs [][]byte) uint64 {
	const prime = 0x9e3779b97f4a7c15
	h := maphash.String(c.seed, host) ^ (uint64(len(host)) * prime)
	for _, chain := range [2][][]byte{auth, obs} {
		h = h*31 + uint64(len(chain))
		for _, der := range chain {
			h = (h << 7) | (h >> 57)
			h ^= maphash.Bytes(c.seed, der) + uint64(len(der))*prime
		}
	}
	return h
}

// chainsEqual is the byte-exact comparison with the pointer fast path:
// the collector hands the identical registered auth-chain slices for
// every report on a host, so the common case is len+pointer equality.
func chainsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		if len(a[i]) > 0 && &a[i][0] == &b[i][0] {
			continue // same backing bytes
		}
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (e *entry[V]) matches(host string, auth, obs [][]byte) bool {
	return e.host == host && chainsEqual(e.auth, auth) && chainsEqual(e.obs, obs)
}

// cloneChain deep-copies a chain into one backing allocation. The miss
// path pays this once per distinct observed chain (tiny cardinality);
// every hit and every waiter then compares against bytes the cache
// owns, immune to caller-side buffer reuse.
func cloneChain(chain [][]byte) [][]byte {
	total := 0
	for _, der := range chain {
		total += len(der)
	}
	back := make([]byte, 0, total)
	out := make([][]byte, len(chain))
	for i, der := range chain {
		back = append(back, der...)
		out[i] = back[len(back)-len(der) : len(back) : len(back)]
	}
	return out
}

// GetOrDerive returns the cached value for the input triple, or runs
// derive exactly once per distinct input across concurrent callers and
// caches its result. Errors are not cached: the next miss retries.
//
// The cache retains host and auth by reference when it inserts: auth
// must be the collector's registered chain (stable, immutable). The
// observed chain is cloned before derive runs, so obs only needs to stay
// valid for the duration of the call — decode-arena slices that are
// recycled after the batch is applied are fine, and flight waiters
// compare against the clone, never the leader's buffers.
func (c *Cache[V]) GetOrDerive(host string, auth, obs [][]byte, derive func() (V, error)) (V, error) {
	e, err := c.lru.GetOrLoad(c.hashInputs(host, auth, obs), func() (*entry[V], error) {
		e := &entry[V]{host: host, auth: auth, obs: cloneChain(obs)}
		var err error
		e.val, err = derive()
		return e, err
	})
	if e.matches(host, auth, obs) {
		return e.val, err
	}
	// Same 64-bit hash, different bytes — resident, or led the flight this
	// caller waited on (whose error, if any, is not ours): derive uncached.
	c.collisions.Add(1)
	return derive()
}

// Peek returns the cached value for the input triple without deriving or
// touching recency and counters (zero V, false when absent).
func (c *Cache[V]) Peek(host string, auth, obs [][]byte) (V, bool) {
	if e, ok := c.lru.Peek(c.hashInputs(host, auth, obs)); ok && e.matches(host, auth, obs) {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Len reports the number of cached values.
func (c *Cache[V]) Len() int { return c.lru.Len() }

// Stats is a point-in-time snapshot of cache accounting.
type Stats struct {
	// Hits found a resident entry; Misses had to wait for a derivation
	// (the single-flight leader and its waiters each count one miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Derives counts successful cached derivations — under single-flight
	// at most one per distinct input per residency — plus one per
	// collision fallback.
	Derives uint64 `json:"derives"`
	// Evictions counts entries dropped to respect the cap.
	Evictions uint64 `json:"evictions"`
	// Collisions counts lookups whose 64-bit hash matched a different
	// input's; those derive uncached and never serve wrong values.
	Collisions uint64 `json:"collisions"`
	Size       int    `json:"size"`
	Cap        int    `json:"cap"`
}

// Stats snapshots the counters with LRU.Stats' coherence, so every
// snapshot — even one racing the hot path — satisfies
//
//	Evictions ≤ Derives ≤ Misses + Collisions
func (c *Cache[V]) Stats() Stats {
	collisions := c.collisions.Load()
	st := c.lru.Stats()
	return Stats{
		Hits:       st.Hits,
		Misses:     st.Misses,
		Derives:    st.Loads + collisions,
		Evictions:  st.Evictions,
		Collisions: collisions,
		Size:       st.Size,
		Cap:        st.Cap,
	}
}
