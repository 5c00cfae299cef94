package chaincache

import (
	"errors"
	"runtime"
	"testing"
)

// intLRU shards by key parity, so tests place keys on shards by hand.
func intLRU(cap, shards int) *LRU[int, int] {
	return NewLRU[int, int](cap, shards, func(k int) uint64 { return uint64(k) })
}

func load(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// peek returns the cached value without touching recency or counters.
func (l *LRU[K, V]) peek(key K) (V, bool) {
	sh := l.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// TestLRUCrossShardEviction: when the inserting shard holds nothing but
// its fresh entry, cap pressure must evict from other shards — never the
// just-inserted entry, which would leave cold shards unable to ever cache.
func TestLRUCrossShardEviction(t *testing.T) {
	l := intLRU(2, 2)
	// Fill to cap on shard 0 (even keys), then insert into empty shard 1.
	for _, k := range []int{0, 2, 1} {
		if _, err := l.GetOrLoad(k, load(k)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("size = %d, want 2", l.Len())
	}
	if _, ok := l.peek(1); !ok {
		t.Fatal("freshly inserted entry was its own eviction victim")
	}
	if _, ok := l.peek(0); ok {
		t.Fatal("the other shard's LRU entry survived cap pressure")
	}
	if _, ok := l.peek(2); !ok {
		t.Fatal("the other shard's recent entry was evicted instead of its LRU")
	}
	if st := l.Stats(); st.Evictions != 1 || st.Loads != 3 || st.Misses != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLRUFreshInsertSurvivesCapOne: with cap 1 every insert overflows, and
// the victim is always the older entry — on the same shard or another.
func TestLRUFreshInsertSurvivesCapOne(t *testing.T) {
	l := intLRU(1, 4) // shards clamp to cap
	for k := 0; k < 8; k++ {
		if _, err := l.GetOrLoad(k, load(k)); err != nil {
			t.Fatal(err)
		}
		if v, ok := l.peek(k); !ok || v != k {
			t.Fatalf("key %d missing right after its insert", k)
		}
		if l.Len() != 1 {
			t.Fatalf("size = %d after insert %d, want 1", l.Len(), k)
		}
	}
}

// TestLRUFailedLoadReachesWaiters: a failed load is not cached, but its
// value and error reach every caller of that flight.
func TestLRUFailedLoadReachesWaiters(t *testing.T) {
	l := intLRU(4, 1)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		v   int
		err error
	}
	results := make(chan result, 2)
	go func() {
		v, err := l.GetOrLoad(7, func() (int, error) {
			close(started)
			<-release
			return 42, boom
		})
		results <- result{v, err}
	}()
	<-started
	go func() {
		v, err := l.GetOrLoad(7, func() (int, error) {
			t.Error("waiter ran its own load")
			return 0, nil
		})
		results <- result{v, err}
	}()
	for l.Stats().Misses < 2 { // until the waiter has joined the flight
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.v != 42 || r.err != boom {
			t.Fatalf("caller %d got (%d, %v), want (42, boom)", i, r.v, r.err)
		}
	}
	if l.Len() != 0 {
		t.Fatal("failed load was cached")
	}
}
