package core

// Tests for the fingerprint-memoized chain-analysis path (chaincache
// wired into Observe/Collector): cached and uncached derivations must be
// indistinguishable, keys must separate every input component, and the
// collector must serve repeated chains from the cache.

import (
	"reflect"
	"testing"
	"time"

	"tlsfof/internal/proxyengine"
	"tlsfof/internal/x509util"
)

// forgedChain mints a substitute chain for host via a real proxy engine.
func forgedChain(t testing.TB, authDER [][]byte, host string) [][]byte {
	t.Helper()
	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "CacheTest", IssuerOrg: "CacheTest Org", KeyBits: 1024,
	}, proxyengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := x509util.ParseChain(authDER)
	if err != nil {
		t.Fatal(err)
	}
	d, err := engine.Decide(host, up, authDER)
	if err != nil {
		t.Fatal(err)
	}
	return d.ChainDER
}

func TestObserveCachedMatchesUncached(t *testing.T) {
	_, leaf := authChain(t, "memo.example")
	forged := forgedChain(t, leaf.ChainDER, "memo.example")
	cache := NewObservationCache(0, 0)

	for _, observed := range [][][]byte{leaf.ChainDER, forged} {
		want, err := Observe("memo.example", leaf.ChainDER, observed, classifier)
		if err != nil {
			t.Fatal(err)
		}
		// First call derives, second must hit; both must equal Observe.
		for i := 0; i < 2; i++ {
			got, err := ObserveCached(cache, "memo.example", leaf.ChainDER, observed, classifier)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cached observation diverges (call %d):\ngot  %+v\nwant %+v", i, got, want)
			}
		}
	}
	st := cache.Stats()
	if st.Derives != 2 || st.Hits != 2 {
		t.Fatalf("cache stats %+v: want 2 derives (clean+forged), 2 hits", st)
	}
}

func TestObserveCachedNilCache(t *testing.T) {
	_, leaf := authChain(t, "nilcache.example")
	want, err := Observe("nilcache.example", leaf.ChainDER, leaf.ChainDER, classifier)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ObserveCached(nil, "nilcache.example", leaf.ChainDER, leaf.ChainDER, classifier)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-cache ObserveCached diverges from Observe")
	}
}

func TestObserveCachedErrorsNotCached(t *testing.T) {
	_, leaf := authChain(t, "err.example")
	cache := NewObservationCache(0, 0)
	bad := [][]byte{{0xde, 0xad}}
	if _, err := ObserveCached(cache, "err.example", leaf.ChainDER, bad, classifier); err == nil {
		t.Fatal("corrupt chain accepted")
	}
	if cache.Stats().Size != 0 {
		t.Fatal("derivation error was cached")
	}
}

// TestObserveCachedSeparatesHosts: the memo key covers the hostname, so
// the same chain pair probed under two hosts derives twice (SubjectDrift
// depends on the host; serving one host's observation for the other would
// corrupt Table 8). Chain-level input separation is pinned in
// internal/chaincache.
func TestObserveCachedSeparatesHosts(t *testing.T) {
	_, leaf := authChain(t, "hosta.example")
	cache := NewObservationCache(0, 0)
	a, err := ObserveCached(cache, "hosta.example", leaf.ChainDER, leaf.ChainDER, classifier)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ObserveCached(cache, "hostb.example", leaf.ChainDER, leaf.ChainDER, classifier)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Derives != 2 {
		t.Fatalf("two hosts shared one derivation (derives=%d)", st.Derives)
	}
	_ = a
	_ = b
}

func TestCollectorIngestUsesCache(t *testing.T) {
	_, leaf := authChain(t, "colcache.example")
	forged := forgedChain(t, leaf.ChainDER, "colcache.example")

	var uncached, cached []Measurement
	run := func(cache *ObservationCache, out *[]Measurement) {
		col := NewCollector(classifier, nil, SinkFunc(func(m Measurement) { *out = append(*out, m) }))
		col.Cache = cache
		col.Clock = func() time.Time { return time.Time{} }
		col.SetAuthoritative("colcache.example", leaf.ChainDER)
		for i := 0; i < 5; i++ {
			if _, err := col.Ingest(0x0a000001, "colcache.example", forged, "t"); err != nil {
				t.Fatal(err)
			}
			if _, err := col.Ingest(0x0a000001, "colcache.example", leaf.ChainDER, "t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	cache := NewObservationCache(0, 0)
	run(nil, &uncached)
	run(cache, &cached)

	if !reflect.DeepEqual(uncached, cached) {
		t.Fatal("cached collector produced different measurements")
	}
	st := cache.Stats()
	if st.Derives != 2 {
		t.Fatalf("collector derived %d observations for 2 distinct chains", st.Derives)
	}
	if st.Hits != 8 {
		t.Fatalf("collector cache hits = %d, want 8", st.Hits)
	}
}
