package chaincache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// in builds a distinct (host, auth, obs) input from a tag.
func in(tag string) (string, [][]byte, [][]byte) {
	return "host-" + tag,
		[][]byte{[]byte("auth-" + tag), {1, 2}},
		[][]byte{[]byte("obs-" + tag), {3}}
}

func TestGetOrDeriveMemoizes(t *testing.T) {
	c := New[int](0, 0)
	host, auth, obs := in("a")
	var calls int
	derive := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 10; i++ {
		v, err := c.GetOrDerive(host, auth, obs, derive)
		if err != nil || v != 42 {
			t.Fatalf("GetOrDerive = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("derive ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Derives != 1 || st.Hits != 9 || st.Misses != 1 || st.Size != 1 || st.Collisions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestInputSeparation: changing any component of the input — the host,
// either chain's bytes, or the split of bytes across certificates — must
// yield an independent derivation, never a cached value for different
// inputs.
func TestInputSeparation(t *testing.T) {
	c := New[string](0, 0)
	derive := func(v string) func() (string, error) {
		return func() (string, error) { return v, nil }
	}
	base := func() (string, [][]byte, [][]byte) {
		return "h", [][]byte{{1, 2, 3}}, [][]byte{{4, 5}}
	}
	host, auth, obs := base()
	if v, _ := c.GetOrDerive(host, auth, obs, derive("base")); v != "base" {
		t.Fatal("base derivation broken")
	}
	variants := []struct {
		name string
		host string
		auth [][]byte
		obs  [][]byte
	}{
		{"hostname", "h2", [][]byte{{1, 2, 3}}, [][]byte{{4, 5}}},
		{"auth bytes", "h", [][]byte{{9, 2, 3}}, [][]byte{{4, 5}}},
		{"observed bytes", "h", [][]byte{{1, 2, 3}}, [][]byte{{9, 5}}},
		{"swapped chains", "h", [][]byte{{4, 5}}, [][]byte{{1, 2, 3}}},
		{"split boundary", "h", [][]byte{{1, 2}, {3}}, [][]byte{{4, 5}}},
		{"appended cert", "h", [][]byte{{1, 2, 3}}, [][]byte{{4, 5}, {6}}},
	}
	for _, v := range variants {
		got, err := c.GetOrDerive(v.host, v.auth, v.obs, derive(v.name))
		if err != nil {
			t.Fatal(err)
		}
		if got == "base" {
			t.Errorf("input differing in %s served the base cached value", v.name)
		}
	}
	// And the base lookup still hits its own value, including through a
	// byte-equal copy in fresh backing arrays (no pointer identity).
	host2 := "h"
	auth2 := [][]byte{append([]byte(nil), 1, 2, 3)}
	obs2 := [][]byte{append([]byte(nil), 4, 5)}
	if v, ok := c.Peek(host2, auth2, obs2); !ok || v != "base" {
		t.Fatalf("byte-equal copy missed: %q %v", v, ok)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](0, 0)
	host, auth, obs := in("err")
	boom := errors.New("boom")
	calls := 0
	if _, err := c.GetOrDerive(host, auth, obs, func() (int, error) { calls++; return 0, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	v, err := c.GetOrDerive(host, auth, obs, func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("derive ran %d times, want 2", calls)
	}
}

// TestSingleFlightStorm hammers one input from many goroutines released
// together: the derivation must run exactly once and every caller must
// receive its value.
func TestSingleFlightStorm(t *testing.T) {
	c := New[int](0, 0)
	host, auth, obs := in("storm")
	const workers = 64
	var derives atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrDerive(host, auth, obs, func() (int, error) {
				derives.Add(1)
				return 99, nil
			})
			if err != nil || v != 99 {
				errs <- fmt.Errorf("got %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := derives.Load(); n != 1 {
		t.Fatalf("derivation ran %d times under storm, want 1", n)
	}
}

// TestCapAndEviction fills past the cap and checks the global bound holds
// and that every distinct input derived exactly once while resident.
func TestCapAndEviction(t *testing.T) {
	const cap = 32
	c := New[int](cap, 4)
	for i := 0; i < 4*cap; i++ {
		i := i
		host, auth, obs := in(fmt.Sprint(i))
		if _, err := c.GetOrDerive(host, auth, obs, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > cap {
		t.Fatalf("cache holds %d entries, cap %d", n, cap)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded past cap")
	}
	if st.Derives != 4*cap {
		t.Fatalf("derives = %d, want %d (distinct inputs, no re-derive while resident)", st.Derives, 4*cap)
	}
}

// TestLRUOrder verifies recency: touching an old entry saves it from
// eviction in a single-shard cache.
func TestLRUOrder(t *testing.T) {
	c := New[int](4, 1)
	get := func(tag string) (int, bool) {
		host, auth, obs := in(tag)
		return c.Peek(host, auth, obs)
	}
	put := func(i int) {
		host, auth, obs := in(fmt.Sprint(i))
		c.GetOrDerive(host, auth, obs, func() (int, error) { return i, nil })
	}
	for i := 0; i < 4; i++ {
		put(i)
	}
	// Touch entry 0 (a hit) so it is most recent, then insert a 5th entry.
	put(0)
	if st := c.Stats(); st.Hits != 1 || st.Derives != 4 {
		t.Fatalf("touch was not a hit: %+v", st)
	}
	put(4)
	if _, ok := get("0"); !ok {
		t.Fatal("recently-touched entry 0 was evicted")
	}
	if _, ok := get("1"); ok {
		t.Fatal("LRU entry 1 survived past cap")
	}
}

func TestConcurrentDistinctInputs(t *testing.T) {
	c := New[int](1024, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := i % 50
				host, auth, obs := in(fmt.Sprint(want))
				v, err := c.GetOrDerive(host, auth, obs, func() (int, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("got %d, %v for input %d", v, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 50 {
		t.Fatalf("cache holds %d entries, want 50", c.Len())
	}
}

// BenchmarkCacheHit measures the steady-state hit path: one content hash,
// one shard lock, one byte-verify, one LRU splice — with realistic chain
// sizes (two ~1 KiB certs a side).
func BenchmarkCacheHit(b *testing.B) {
	c := New[int](0, 0)
	host := "hot.example"
	auth := [][]byte{make([]byte, 1024), make([]byte, 1024)}
	obs := [][]byte{make([]byte, 1024), make([]byte, 1024)}
	obs[0][0] = 1
	c.GetOrDerive(host, auth, obs, func() (int, error) { return 1, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetOrDerive(host, auth, obs, func() (int, error) { return 1, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// plant makes c hold (or, with release non-nil, be mid-flight on) the
// input tagged `tag` under the content hash of a *different* input — a
// manufactured 64-bit collision.
func plant(c *Cache[int], underHash uint64, tag string, val int, err error, started, release chan struct{}) {
	host, auth, obs := in(tag)
	c.lru.GetOrLoad(underHash, func() (*entry[int], error) {
		if release != nil {
			close(started)
			<-release
		}
		return &entry[int]{host: host, auth: auth, obs: obs, val: val}, err
	})
}

// TestCollisionDerivesUncached: an entry resident under the caller's hash
// but derived from different bytes is never served; the caller derives
// its own value, uncached, and the collision is counted.
func TestCollisionDerivesUncached(t *testing.T) {
	c := New[int](0, 0)
	host, auth, obs := in("mine")
	plant(c, c.hashInputs(host, auth, obs), "theirs", 1, nil, nil, nil)
	for i := 0; i < 2; i++ {
		v, err := c.GetOrDerive(host, auth, obs, func() (int, error) { return 2, nil })
		if err != nil || v != 2 {
			t.Fatalf("colliding lookup %d = %d, %v; want own derivation 2", i, v, err)
		}
	}
	if _, ok := c.Peek(host, auth, obs); ok {
		t.Fatal("Peek served a colliding entry")
	}
	if st := c.Stats(); st.Collisions != 2 || st.Derives != 3 || st.Size != 1 {
		t.Fatalf("stats %+v, want 2 collisions, 3 derives (1 planted + 2 fallbacks), size 1", st)
	}
}

// TestCollidingFlightFailureIsNotMine: a caller that waited on a flight
// led by a colliding input must see the leader's inputs — even when the
// leader's derive failed — and answer with its own derivation, not the
// leader's error.
func TestCollidingFlightFailureIsNotMine(t *testing.T) {
	c := New[int](0, 0)
	host, auth, obs := in("mine")
	started, release := make(chan struct{}), make(chan struct{})
	go plant(c, c.hashInputs(host, auth, obs), "theirs", 0, errors.New("their failure"), started, release)
	<-started
	type result struct {
		v   int
		err error
	}
	done := make(chan result)
	go func() {
		v, err := c.GetOrDerive(host, auth, obs, func() (int, error) { return 2, nil })
		done <- result{v, err}
	}()
	for c.Stats().Misses < 2 { // until the waiter has joined the colliding flight
		runtime.Gosched()
	}
	close(release)
	if r := <-done; r.v != 2 || r.err != nil {
		t.Fatalf("waiter on a colliding failed flight got (%d, %v), want (2, nil)", r.v, r.err)
	}
	if st := c.Stats(); st.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", st.Collisions)
	}
}
