package proxyengine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/chaincache"
	"tlsfof/internal/classify"
	"tlsfof/internal/x509util"
)

// errNotResident is the load resident runs on a miss.
var errNotResident = errors.New("not resident")

// resident reports whether key is cached. A miss runs a failing load,
// which the LRU never caches, so a probe leaves the cached set as it was.
func resident[K comparable, V any](l *chaincache.LRU[K, V], key K) bool {
	_, err := l.GetOrLoad(key, func() (V, error) {
		var zero V
		return zero, errNotResident
	})
	return err == nil
}

// TestForgeSingleFlightStorm: a storm of concurrent connections to one
// host must collapse into exactly one certificate mint, and every caller
// must receive the byte-identical substitute chain — the field behavior
// (all clients of one appliance see the same forgery) under concurrency.
func TestForgeSingleFlightStorm(t *testing.T) {
	_, authLeaf := authSetup(t, "storm.example")
	e := newEngine(t, Profile{ProductName: "StormCo", IssuerOrg: "StormCo"})
	up := parsed(t, authLeaf.ChainDER)

	const callers = 64
	chains := make([][][]byte, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			d, err := e.Decide("storm.example", up, authLeaf.ChainDER)
			chains[i], errs[i] = d.ChainDER, err
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !x509util.ChainsEqual(chains[i], chains[0]) {
			t.Fatalf("caller %d saw a different forgery", i)
		}
	}
	st := e.CacheStats()
	if st.Forges != 1 {
		t.Fatalf("forges = %d, want exactly 1 (single-flight)", st.Forges)
	}
	if st.Hits+st.Misses != callers {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, callers)
	}
	if e.CacheStats().Size != 1 {
		t.Fatalf("cache size = %d", e.CacheStats().Size)
	}
}

// TestForgeCacheEviction: the cache never exceeds its cap, evictions are
// counted, and an evicted host is forged anew on the next request.
func TestForgeCacheEviction(t *testing.T) {
	const cap = 8
	c := NewForgeCache(cap, 4)
	mint := func(host string) func() (*certgen.Leaf, error) {
		return func() (*certgen.Leaf, error) { return &certgen.Leaf{}, nil }
	}
	for i := 0; i < 100; i++ {
		host := fmt.Sprintf("h%03d.example", i)
		if _, err := c.GetOrForge(host, mint(host)); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Size > cap {
			t.Fatalf("cache size %d exceeds cap %d after insert %d", c.Stats().Size, cap, i)
		}
	}
	st := c.Stats()
	if st.Evictions < 100-cap {
		t.Fatalf("evictions = %d, want >= %d", st.Evictions, 100-cap)
	}
	if st.Forges != 100 {
		t.Fatalf("forges = %d, want 100", st.Forges)
	}

	// At least one early host must have been evicted; re-requesting it
	// forges again rather than serving stale state.
	evicted := ""
	for i := 0; i < 100; i++ {
		host := fmt.Sprintf("h%03d.example", i)
		if !resident(c.lru, host) {
			evicted = host
			break
		}
	}
	if evicted == "" {
		t.Fatal("no host was evicted despite cap pressure")
	}
	before := c.Stats().Forges
	if _, err := c.GetOrForge(evicted, mint(evicted)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Forges; got != before+1 {
		t.Fatalf("re-forge after eviction: forges %d → %d", before, got)
	}
}

// TestForgeCacheLRUOrder pins the recency contract with a single shard:
// touching an entry protects it from the next eviction.
func TestForgeCacheLRUOrder(t *testing.T) {
	c := NewForgeCache(2, 1)
	leaf := func() (*certgen.Leaf, error) { return &certgen.Leaf{}, nil }
	for _, h := range []string{"a", "b"} {
		if _, err := c.GetOrForge(h, leaf); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is now least recently used.
	if _, err := c.GetOrForge("a", leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrForge("c", leaf); err != nil {
		t.Fatal(err)
	}
	if !resident(c.lru, "a") {
		t.Fatal("recently used entry evicted")
	}
	if resident(c.lru, "b") {
		t.Fatal("LRU entry survived eviction")
	}
}

// TestForgeCacheCrossShardEviction: when the inserting shard holds
// nothing but its fresh entry, cap pressure must evict from other shards
// — never the just-inserted entry, which would leave cold shards unable
// to ever cache.
func TestForgeCacheCrossShardEviction(t *testing.T) {
	c := NewForgeCache(2, 2)
	leaf := func() (*certgen.Leaf, error) { return &certgen.Leaf{}, nil }
	// Fill the cache to cap with two hosts on one shard, then insert into
	// the other (empty) shard.
	anchor := "a.example"
	var sameShard, otherShard string
	for i := 0; i < 1000 && (sameShard == "" || otherShard == ""); i++ {
		cand := fmt.Sprintf("h%d.example", i)
		if hostHash(cand)%2 == hostHash(anchor)%2 {
			if sameShard == "" {
				sameShard = cand
			}
		} else if otherShard == "" {
			otherShard = cand
		}
	}
	if sameShard == "" || otherShard == "" {
		t.Fatal("could not find hosts for both shards")
	}
	for _, h := range []string{anchor, sameShard} {
		if _, err := c.GetOrForge(h, leaf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetOrForge(otherShard, leaf); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Size != 2 {
		t.Fatalf("size = %d, want 2", c.Stats().Size)
	}
	if !resident(c.lru, otherShard) {
		t.Fatal("freshly inserted entry was its own eviction victim")
	}
	if resident(c.lru, anchor) {
		t.Fatal("the other shard's LRU entry survived cap pressure")
	}
	if !resident(c.lru, sameShard) {
		t.Fatal("the other shard's recent entry was evicted instead of its LRU")
	}
}

// TestForgeCacheErrorNotCached: a failed forge must not poison the cache;
// the next request retries.
func TestForgeCacheErrorNotCached(t *testing.T) {
	c := NewForgeCache(4, 1)
	calls := 0
	_, err := c.GetOrForge("flaky.example", func() (*certgen.Leaf, error) {
		calls++
		return nil, fmt.Errorf("transient")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if c.Stats().Size != 0 {
		t.Fatal("failed forge was cached")
	}
	if _, err := c.GetOrForge("flaky.example", func() (*certgen.Leaf, error) {
		calls++
		return &certgen.Leaf{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error retried)", calls)
	}
}

// TestCachedChainsStablePerProduct: for every product profile in the
// database, the chain served from the cache is byte-identical to the chain
// the forge produced — across repeated and concurrent Decides. The cache
// must never re-mint, rebuild, or reorder a chain it holds.
func TestCachedChainsStablePerProduct(t *testing.T) {
	const host = "stable.example"
	_, authLeaf := authSetup(t, host)
	up := parsed(t, authLeaf.ChainDER)

	for _, p := range classify.KnownProducts {
		name := p.Name
		if name == "" {
			name = p.CommonName
		}
		t.Run(name, func(t *testing.T) {
			e := newEngine(t, FromProduct(&p))
			first, err := e.Decide(host, up, authLeaf.ChainDER)
			if err != nil {
				t.Fatal(err)
			}
			if first.Action != ActionIntercept {
				t.Skipf("profile does not intercept %s", host)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d, err := e.Decide(host, up, authLeaf.ChainDER)
					if err != nil {
						t.Errorf("cached decide: %v", err)
						return
					}
					if !x509util.ChainsEqual(d.ChainDER, first.ChainDER) {
						t.Error("cached chain differs from forged chain")
					}
				}()
			}
			wg.Wait()
			if st := e.CacheStats(); st.Forges != 1 {
				t.Fatalf("forges = %d, want 1", st.Forges)
			}
		})
	}
}

// BenchmarkForgeCached contrasts the two forge paths the interception
// plane takes: a cache hit on a repeated host versus a full mint on a
// never-seen host. The ISSUE acceptance bar is >= 10x; the measured gap is
// orders of magnitude (map lookup vs RSA sign); `go run -C bench .
// -workload livewire` reports proxyengine.forge_hit_ratio under load.
func BenchmarkForgeCached(b *testing.B) {
	_, authLeaf := authSetup(b, "bench-cache.example")
	up := parsed(b, authLeaf.ChainDER)

	b.Run("cached", func(b *testing.B) {
		e, err := New(Profile{IssuerOrg: "BenchCo"}, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Decide("bench-cache.example", up, authLeaf.ChainDER); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Decide("bench-cache.example", up, authLeaf.ChainDER); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("uncached", func(b *testing.B) {
		// Unbounded-enough cap so every iteration is a genuine miss, and
		// a warm key pool so the mint cost measured is issuance+signing,
		// not keygen.
		e, err := New(Profile{IssuerOrg: "BenchCo"}, Options{CacheCap: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := certgen.DefaultPool.Get(1024); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			host := fmt.Sprintf("h%d.bench.example", i)
			if _, err := e.Decide(host, up, authLeaf.ChainDER); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandleConnKept is the whole interceptor hop on a kept origin —
// sniff, origin-memo hit, Decide on a forge-cache hit, forged flight out —
// over a scripted connection, so nothing but HandleConn is on the clock.
func BenchmarkHandleConnKept(b *testing.B) {
	ic, conn := keptOriginConn(b, "bench-kept.example")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.pos = 0
		if err := ic.HandleConn(conn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForgeCachedParallel measures the hit path under contention —
// the shape a fleet of concurrent probes puts on one engine.
func BenchmarkForgeCachedParallel(b *testing.B) {
	_, authLeaf := authSetup(b, "bench-par.example")
	up := parsed(b, authLeaf.ChainDER)
	e, err := New(Profile{IssuerOrg: "BenchCo"}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	hosts := make([]string, 64)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d.par.example", i)
		if _, err := e.Decide(hosts[i], up, authLeaf.ChainDER); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Decide(hosts[i%len(hosts)], up, authLeaf.ChainDER); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
