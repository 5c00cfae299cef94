package telemetry

import (
	"math/bits"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/raceflag"
	"tlsfof/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	// Idempotent registration returns the same cell.
	if reg.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	g := reg.Gauge("y", "")
	h := reg.Histogram("z", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// None of these may panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	reg.GaugeFunc("f", "", func() float64 { return 1 })
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var tr *Tracer
	tr.Observe(StageProbe, time.Second)
	tr.Record(1, StageProbe, time.Now(), time.Second)
	tr.RecordSpan(1, StageProbe, time.Now(), time.Second)
	if _, ok := tr.Lookup(1); ok {
		t.Fatal("nil tracer must not find traces")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("m", "")
}

// TestHistogramBucketBoundaries is the bucket-boundary property test:
// for deterministic pseudo-random durations, every observation must land
// in the unique bucket i with 2^(i-1) <= d < 2^i, BucketBound must agree
// with bits.Len64, and snapshot totals must be conserved.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := &Histogram{}
	rng := stats.NewRNG(0x7e1e)
	var want [histBuckets]uint64
	const n = 10000
	var sum int64
	for i := 0; i < n; i++ {
		// Spread magnitudes across the full range: pick a bit width, then
		// a value of that width.
		width := 1 + rng.Intn(62)
		d := time.Duration(uint64(1)<<(width-1) | rng.Uint64()%(uint64(1)<<(width-1)))
		idx := bits.Len64(uint64(d)) - 1
		if idx != bucketIndex(d) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", d, bucketIndex(d), idx)
		}
		lo, hi := uint64(0), BucketBound(idx)
		if idx > 0 {
			lo = BucketBound(idx - 1)
		}
		if uint64(d) < lo || (idx < 63 && uint64(d) >= hi) {
			t.Fatalf("duration %d outside bucket %d bounds [%d,%d)", d, idx, lo, hi)
		}
		want[idx]++
		sum += int64(d)
		h.Observe(d)
	}
	// Exact boundary values: 2^k must land in bucket k, 2^k - 1 in k-1.
	for k := 1; k < 63; k++ {
		if got := bucketIndex(time.Duration(uint64(1) << k)); got != k {
			t.Fatalf("bucketIndex(2^%d) = %d, want %d", k, got, k)
		}
		if got := bucketIndex(time.Duration(uint64(1)<<k - 1)); got != k-1 {
			t.Fatalf("bucketIndex(2^%d-1) = %d, want %d", k, got, k-1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(-time.Second); got != 0 {
		t.Fatalf("bucketIndex(-1s) = %d, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	var bucketTotal uint64
	for i := range s.Buckets {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, s.Buckets[i], want[i])
		}
		bucketTotal += s.Buckets[i]
	}
	if bucketTotal != n {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, n)
	}
	if wantSum := float64(sum) / 1e9; s.SumSeconds != wantSum {
		t.Fatalf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	// 90 fast observations (~1µs bucket), 10 slow (~1ms bucket).
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	p99 := s.Quantile(0.99)
	if p50 > 4*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs upper bound", p50)
	}
	if p99 < 500*time.Microsecond || p99 > 4*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms upper bound", p99)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestConcurrentIncrementScrape hammers a shared counter, gauge, and
// histogram from many goroutines while scraping continuously — the -race
// coverage for the registry hot paths, and an invariant check that
// scrapes only ever see monotonically consistent histogram totals.
func TestConcurrentIncrementScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "")
	reg.GaugeFunc("f", "", func() float64 { return float64(c.Value()) })

	const workers = 8
	const perWorker = 2000
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, m := range reg.Snapshot() {
				if m.Kind != KindHistogram {
					continue
				}
				var bucketTotal uint64
				for _, b := range m.Hist.Buckets {
					bucketTotal += b
				}
				// Count is loaded before the buckets in Snapshot and
				// incremented after its bucket in Observe, so a scrape
				// must never see count exceed the bucket sum.
				if m.Hist.Count > bucketTotal {
					t.Errorf("scrape saw count %d > bucket total %d", m.Hist.Count, bucketTotal)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRNG(seed)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(1 + rng.Intn(1_000_000)))
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHotPathAllocs is the alloc guard the issue demands: counter
// increment and histogram observe must be 0 allocs/op, or they cannot
// ride the probe/ingest hot paths that BenchmarkProbeAllocs pins.
// Race instrumentation allocates internally, so the pin is gated like
// the other hot-path guards.
func TestHotPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates; alloc pins run in the no-race CI lane")
	}
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "")
	tr := NewTracer(reg, 16)

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Observe(StageWAL, time.Millisecond) }); n != 0 {
		t.Errorf("Tracer.Observe allocates %v/op, want 0", n)
	}
	// Span recording into an existing trace slot must not allocate either
	// (the per-measurement path inside batched stages). Recording stops at
	// maxSpans, so alternate between two resident IDs to keep the slot
	// lookup path hot without growing anything.
	tr.RecordSpan(7, StageProbe, time.Time{}, time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() {
		tr.RecordSpan(7, StageObserve, time.Time{}, time.Millisecond)
	}); n != 0 {
		t.Errorf("Tracer.RecordSpan (resident id) allocates %v/op, want 0", n)
	}
}
