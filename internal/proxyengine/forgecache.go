package proxyengine

import (
	"tlsfof/internal/certgen"
	"tlsfof/internal/chaincache"
	"tlsfof/internal/stats"
)

// ForgeCache is the engine's bounded forged-chain cache, keyed by host.
// Real interception appliances cache one forgery per origin and serve
// thousands of concurrent interceptions from it (Waked et al. document
// per-origin caches across every appliance they tested); this is the same
// structure, sized so a proxy fronting a large client population forges
// each origin once and then serves lock-striped cache hits.
//
// It is a typed front over chaincache.LRU — the one sharded, bounded,
// single-flight memo in the system; see its concurrency contract.
// Concurrent misses on the same host collapse into one forge call and
// every waiter receives the identical leaf, so all clients of the proxy
// see byte-identical substitutes, as in the field data.
type ForgeCache struct {
	lru *chaincache.LRU[string, *certgen.Leaf]
}

// DefaultForgeCacheCap bounds the forged-chain cache when Options leave it
// unset. Sized for the hot tail of a real origin population; one cached
// leaf is a parsed certificate plus its DER chain, a few KiB.
const DefaultForgeCacheCap = 4096

// NewForgeCache builds a cache holding at most cap forged leaves across
// `shards` lock-striped partitions (defaults applied when <= 0).
func NewForgeCache(cap, shards int) *ForgeCache {
	if cap <= 0 {
		cap = DefaultForgeCacheCap
	}
	return &ForgeCache{lru: chaincache.NewLRU[string, *certgen.Leaf](cap, shards, hostHash)}
}

func hostHash(host string) uint64 { return uint64(stats.FNV1a(host)) }

// GetOrForge returns the cached leaf for host, or runs forge exactly once
// per host across concurrent callers and caches its result. Errors are not
// cached: the next miss retries.
func (c *ForgeCache) GetOrForge(host string, forge func() (*certgen.Leaf, error)) (*certgen.Leaf, error) {
	return c.lru.GetOrLoad(host, forge)
}

// ForgeStats is a point-in-time snapshot of cache accounting.
type ForgeStats struct {
	// Hits served a cached chain; Misses had to wait for a forge (the
	// single-flight leader and its waiters each count one miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Forges counts actual certificate mints — under single-flight this
	// is at most one per distinct host per residency.
	Forges uint64 `json:"forges"`
	// Evictions counts entries dropped to respect the cap.
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Cap       int    `json:"cap"`
}

// Stats snapshots the cache counters with LRU.Stats' coherence
// (Evictions ≤ Forges ≤ Misses in every snapshot).
func (c *ForgeCache) Stats() ForgeStats {
	st := c.lru.Stats()
	return ForgeStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Forges:    st.Loads,
		Evictions: st.Evictions,
		Size:      st.Size,
		Cap:       st.Cap,
	}
}
