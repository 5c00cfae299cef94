package study

// The chaincache equivalence property: core.ObserveCached — the memo the
// live report path runs behind (core.Collector.Cache) — must agree field
// for field with core.Observe on every input the studies can produce.
// The input space is small and enumerable: per study, every host's clean
// chain plus the forged chain of every (behavior signature × host) pair.
// Chains are compared by DER bytes, so equal content ⇒ equal observation;
// this pins "cache on ≡ cache off" over the whole reproduction without a
// second observation backend in the generator.

import (
	"sync"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
)

// observeInput is one (host, authoritative chain, observed chain) triple
// with the observation core.Observe derives from it.
type observeInput struct {
	host      string
	auth, obs [][]byte
	want      core.Observation
}

// studyInputs enumerates every Observe input the study's factory can
// produce.
func studyInputs(t *testing.T, study clientpop.Study) (*obsFactory, []observeInput) {
	t.Helper()
	w, err := newWorld(study, certgen.DefaultPool, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := w.factory
	sigs := map[behaviorSig]bool{}
	for _, d := range f.deps {
		sigs[sigOf(d.Product)] = true
	}
	var ins []observeInput
	add := func(hi int, observed [][]byte) {
		host, auth := f.hosts[hi].Name, f.chains[hi]
		want, err := core.Observe(host, auth, observed, f.classifier)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, observeInput{host: host, auth: auth, obs: observed, want: want})
	}
	for hi := range f.hosts {
		add(hi, f.chains[hi])
		for sig := range sigs {
			forged, err := f.forge(sig, hi)
			if err != nil {
				t.Fatal(err)
			}
			add(hi, forged)
		}
	}
	return f, ins
}

func TestChainCacheEquivalence(t *testing.T) {
	for _, study := range []clientpop.Study{clientpop.Study1, clientpop.Study2} {
		f, ins := studyInputs(t, study)
		cache := core.NewObservationCache(0, 0)
		// First pass derives, second must hit; both must equal Observe.
		for pass := 0; pass < 2; pass++ {
			for _, in := range ins {
				got, err := core.ObserveCached(cache, in.host, in.auth, in.obs, f.classifier)
				if err != nil {
					t.Fatal(err)
				}
				if got != in.want {
					t.Errorf("study %v pass %d host %s: cached observation diverges:\ngot  %+v\nwant %+v",
						study, pass, in.host, got, in.want)
				}
			}
		}
		st := cache.Stats()
		if n := uint64(len(ins)); st.Derives != n || st.Hits != n {
			t.Errorf("study %v: cache stats %+v, want %d derives and %d hits", study, st, n, n)
		}
	}
}

// TestChainCacheEquivalenceConcurrent walks the study-2 input space from
// several goroutines sharing one cache — the access pattern of concurrent
// report uploads: single-flight derivation under real contention must
// still serve exactly Observe's values, deriving each distinct input once.
func TestChainCacheEquivalenceConcurrent(t *testing.T) {
	f, ins := studyInputs(t, clientpop.Study2)
	cache := core.NewObservationCache(0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, in := range ins {
				got, err := core.ObserveCached(cache, in.host, in.auth, in.obs, f.classifier)
				if err != nil {
					t.Error(err)
					return
				}
				if got != in.want {
					t.Errorf("host %s: cached observation diverges under contention", in.host)
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Derives != uint64(len(ins)) {
		t.Errorf("derives = %d, want %d (one per distinct input)", st.Derives, len(ins))
	}
}
