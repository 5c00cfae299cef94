package chaincache

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotInvariants scrapes the cache continuously while worker
// goroutines hammer GetOrDerive, and asserts the causal counter
// invariants hold in every observed snapshot:
//
//	Evictions ≤ Derives ≤ Misses + Collisions
//	Hits + Misses ≥ Derives (every derive was preceded by a lookup)
//
// Run under -race this also proves Stats is data-race free against
// the hot path. The snapshot load order (effects before causes, in
// LRU.Stats) is what makes the invariants hold; reordering the loads
// breaks this test under load.
func TestSnapshotInvariants(t *testing.T) {
	c := New[int](64, 4) // small cap so evictions actually happen

	// Workers do a fixed amount of work; the scraper runs until they
	// finish so the overlap is guaranteed even on one CPU (a time-boxed
	// scrape loop can complete before any worker is scheduled).
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// Alternate a hot set of 8 keys (stays resident → hits)
				// with 256 distinct inputs against the 64-entry cap
				// (misses, derives, evictions).
				k := (w*31 + i) % 256
				if i%2 == 0 {
					k %= 8
				}
				host := fmt.Sprintf("host-%d.example", k)
				auth := [][]byte{[]byte(host + "-auth")}
				obs := [][]byte{[]byte(host + "-obs")}
				_, err := c.GetOrDerive(host, auth, obs, func() (int, error) { return k, nil })
				if err != nil {
					t.Errorf("GetOrDerive: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for i := 0; ; i++ {
		st := c.Stats()
		if st.Evictions > st.Derives {
			t.Fatalf("snapshot %d: Evictions (%d) > Derives (%d)", i, st.Evictions, st.Derives)
		}
		if st.Derives > st.Misses+st.Collisions {
			t.Fatalf("snapshot %d: Derives (%d) > Misses+Collisions (%d+%d)",
				i, st.Derives, st.Misses, st.Collisions)
		}
		if st.Derives > st.Hits+st.Misses+st.Collisions {
			t.Fatalf("snapshot %d: Derives (%d) > lookups (%d)",
				i, st.Derives, st.Hits+st.Misses+st.Collisions)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	// Quiescent: the final snapshot accounts everything.
	st := c.Stats()
	if st.Derives == 0 || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("workload did not exercise all counters: %+v", st)
	}
	if st.Size > st.Cap+len(c.lru.shards) {
		t.Fatalf("size %d far above cap %d", st.Size, st.Cap)
	}
}
