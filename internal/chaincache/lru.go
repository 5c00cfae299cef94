package chaincache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// defaultShards spreads lock contention; only needs to exceed plausible
// concurrent parallelism per cache.
const defaultShards = 16

// LRU is the one memo core in the system: a sharded, bounded map from K
// to V with single-flight loading. Cache (keyed by chain content),
// proxyengine.ForgeCache (keyed by host) and the proxyengine.Interceptor's
// origin memo (keyed by host and relayed version) are typed fronts over it.
//
// Concurrency contract:
//
//   - Lookups take one shard mutex, never the whole cache.
//   - Concurrent misses on one key collapse into a single load call;
//     every waiter receives the leader's value and error.
//   - At most cap entries are held globally; inserting past the cap
//     evicts least-recently-used entries, from the inserting shard first
//     and then (under hash skew) from other shards. A freshly inserted
//     entry is never its own victim, so overflow can transiently exceed
//     the cap by at most the shard count under contention.
//   - Errors are not cached: the next miss retries the load.
type LRU[K comparable, V any] struct {
	shards []lruShard[K, V]
	hash   func(K) uint64
	cap    int
	size   atomic.Int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	loads     atomic.Uint64
	evictions atomic.Uint64
}

type lruShard[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*list.Element // key → *lruEntry element
	lru      list.List           // front = most recent
	inflight map[K]*flight[V]
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-flight load that concurrent misses wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewLRU builds a cache holding at most cap (> 0) values across `shards`
// lock-striped partitions (defaultShards when <= 0, never more than cap).
// hash picks a key's shard; it must be deterministic per key.
func NewLRU[K comparable, V any](cap, shards int, hash func(K) uint64) *LRU[K, V] {
	if shards <= 0 {
		shards = defaultShards
	}
	if shards > cap {
		shards = cap
	}
	l := &LRU[K, V]{shards: make([]lruShard[K, V], shards), hash: hash, cap: cap}
	for i := range l.shards {
		l.shards[i].entries = make(map[K]*list.Element)
		l.shards[i].inflight = make(map[K]*flight[V])
	}
	return l
}

func (l *LRU[K, V]) shard(key K) *lruShard[K, V] {
	return &l.shards[l.hash(key)%uint64(len(l.shards))]
}

// GetOrLoad returns the cached value for key, or runs load exactly once
// per key across concurrent callers and caches its result. A failed load
// is not cached, but its value and error still reach the leader and every
// waiter of that flight — a front that stores its inputs in V can tell
// whose failure it was.
func (l *LRU[K, V]) GetOrLoad(key K, load func() (V, error)) (V, error) {
	sh := l.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		val := el.Value.(*lruEntry[K, V]).val
		sh.mu.Unlock()
		l.hits.Add(1)
		return val, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		l.misses.Add(1)
		<-fl.done
		return fl.val, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()
	l.misses.Add(1)

	fl.val, fl.err = load()
	if fl.err == nil {
		l.loads.Add(1)
	}

	sh.mu.Lock()
	delete(sh.inflight, key)
	if fl.err == nil {
		inserted := sh.lru.PushFront(&lruEntry[K, V]{key: key, val: fl.val})
		sh.entries[key] = inserted
		l.size.Add(1)
		l.evictFromLocked(sh, inserted)
	}
	sh.mu.Unlock()
	if fl.err == nil && l.size.Load() > int64(l.cap) {
		l.evictElsewhere(sh)
	}
	close(fl.done)
	return fl.val, fl.err
}

// evictFromLocked removes sh's least-recently-used entries (never keep,
// the entry just inserted — evicting it would leave a cold shard unable to
// ever cache) until the global size is back under the cap or the shard
// has nothing older left. Caller holds sh.mu.
func (l *LRU[K, V]) evictFromLocked(sh *lruShard[K, V], keep *list.Element) {
	for l.size.Load() > int64(l.cap) {
		el := sh.lru.Back()
		if el == nil || el == keep {
			return
		}
		sh.lru.Remove(el)
		delete(sh.entries, el.Value.(*lruEntry[K, V]).key)
		l.size.Add(-1)
		l.evictions.Add(1)
	}
}

// evictElsewhere handles the skew case where the inserting shard held
// nothing but its new entry: steal LRU tails from other shards. TryLock
// keeps the cache deadlock-free (two shards never wait on each other); a
// contended shard is skipped and the transient overflow — bounded by the
// shard count — is corrected by the next insert's eviction pass.
func (l *LRU[K, V]) evictElsewhere(sh *lruShard[K, V]) {
	for i := range l.shards {
		o := &l.shards[i]
		if o == sh || !o.mu.TryLock() {
			continue
		}
		l.evictFromLocked(o, nil)
		o.mu.Unlock()
		if l.size.Load() <= int64(l.cap) {
			return
		}
	}
}

// Peek returns the cached value without touching recency or counters.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	sh := l.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Len reports the number of cached values.
func (l *LRU[K, V]) Len() int { return int(l.size.Load()) }

// LRUStats is a point-in-time snapshot of LRU accounting.
type LRUStats struct {
	// Hits served a cached value; Misses had to wait for a load (the
	// single-flight leader and its waiters each count one miss).
	Hits, Misses uint64
	// Loads counts successful loads — under single-flight at most one per
	// distinct key per residency.
	Loads uint64
	// Evictions counts entries dropped to respect the cap.
	Evictions uint64
	Size, Cap int
}

// Stats captures the counters coherently: effects are loaded before
// their causes, so the causal invariants hold in every snapshot even
// when it races the hot path. Each increment path bumps cause before
// effect (a miss precedes its load; a load precedes the insert whose
// overflow precedes an eviction), and the counters are monotonic, so
// loading an effect first yields a value no greater than its cause read
// later:
//
//	Evictions ≤ Loads ≤ Misses
func (l *LRU[K, V]) Stats() LRUStats {
	evictions := l.evictions.Load()
	loads := l.loads.Load()
	misses := l.misses.Load()
	return LRUStats{
		Hits:      l.hits.Load(),
		Misses:    misses,
		Loads:     loads,
		Evictions: evictions,
		Size:      l.Len(),
		Cap:       l.cap,
	}
}
