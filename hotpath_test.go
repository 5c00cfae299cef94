package tlsfof

// The hot-path benchmark pair for ISSUE 3: BenchmarkObserveUncached is
// the seed's per-report cost (parse both DER chains, compare, classify);
// BenchmarkObserveCached is the same report through the fingerprint-keyed
// memo. The paper's skew — 15 products dominating ~41k intercepted chains
// — makes the cached path the common case at fleet scale. EXPERIMENTS.md
// records the measured ratio (acceptance bar: ≥ 50x); `go run -C bench .`
// reports chaincache.hit_ratio under load.

import (
	"crypto/x509/pkix"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/x509util"
)

// hotpathWorld builds one authoritative chain and one forged substitute
// for it — the repeated (host, chain) pair every benchmark below replays.
type hotpathWorld struct {
	host       string
	authDER    [][]byte
	forgedDER  [][]byte
	classifier *classify.Classifier
}

func newHotpathWorld(b *testing.B) *hotpathWorld {
	b.Helper()
	pool := certgen.NewKeyPool(2, nil)
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Hotpath CA", Organization: []string{"Hotpath"}},
		KeyBits: 1024, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	const host = "hotpath.example"
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 2048, Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "Bitdefender", IssuerOrg: "Bitdefender", KeyBits: 1024,
	}, proxyengine.Options{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	upstream, err := x509util.ParseChain(leaf.ChainDER)
	if err != nil {
		b.Fatal(err)
	}
	d, err := engine.Decide(host, upstream, leaf.ChainDER)
	if err != nil {
		b.Fatal(err)
	}
	return &hotpathWorld{
		host:       host,
		authDER:    leaf.ChainDER,
		forgedDER:  d.ChainDER,
		classifier: classify.NewClassifier(),
	}
}

// BenchmarkObserveUncached is the seed report path: full certificate
// parsing, chain comparison, and issuer classification per report.
func BenchmarkObserveUncached(b *testing.B) {
	w := newHotpathWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := core.Observe(w.host, w.authDER, w.forgedDER, w.classifier)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Proxied {
			b.Fatal("forged chain not flagged")
		}
	}
}

// BenchmarkObserveCached replays the same report through the observation
// memo: one seeded content hash, a sharded map hit, and a byte-exact
// verify of the stored inputs.
func BenchmarkObserveCached(b *testing.B) {
	w := newHotpathWorld(b)
	cache := core.NewObservationCache(0, 0)
	if _, err := core.ObserveCached(cache, w.host, w.authDER, w.forgedDER, w.classifier); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := core.ObserveCached(cache, w.host, w.authDER, w.forgedDER, w.classifier)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Proxied {
			b.Fatal("forged chain not flagged")
		}
	}
	if st := cache.Stats(); st.Derives != 1 {
		b.Fatalf("cache derived %d times during a hit-only benchmark", st.Derives)
	}
}

// BenchmarkObserveCachedParallel drives the memo from all procs — the
// collector's actual concurrency shape under a fleet.
func BenchmarkObserveCachedParallel(b *testing.B) {
	w := newHotpathWorld(b)
	cache := core.NewObservationCache(0, 0)
	if _, err := core.ObserveCached(cache, w.host, w.authDER, w.forgedDER, w.classifier); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.ObserveCached(cache, w.host, w.authDER, w.forgedDER, w.classifier); err != nil {
				b.Fatal(err)
			}
		}
	})
}
