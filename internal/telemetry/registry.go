package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric types a Registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindGaugeFunc
	KindHistogram
)

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil Counter ignores updates, so unmounted instrumentation costs one
// predictable branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations with bits.Len64(nanoseconds) == i+1, i.e. durations in
// [2^i, 2^(i+1)) ns — log2 buckets from 1ns to ~292 years. Fixed-size
// arrays keep Observe allocation-free and bucket selection branch-free.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram. Observe is one atomic
// add on a fixed cell plus one on the sum — zero allocations, safe on the
// probe/ingest hot paths. Nil-safe like Counter.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// bucketIndex maps a duration to its log2 bucket. Non-positive durations
// land in bucket 0 (clock skew between hops must not panic a scrape).
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// BucketBound returns the exclusive upper bound of bucket i in
// nanoseconds: bucket i covers [1<<i, 1<<(i+1)) so its bound is
// 1<<(i+1), saturating at the top of the range.
func BucketBound(i int) uint64 {
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i+1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// ObserveSince records the elapsed time from start to now.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start))
}

// HistogramSnapshot is a coherent-enough point-in-time copy of a
// histogram: Count is read first, so Count <= sum of bucket counts never
// inverts (a bucket increment precedes its count increment in every
// Observe, so every observation Count saw is already in its bucket).
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	// SumSeconds is the total observed time.
	SumSeconds float64 `json:"sum_seconds"`
	// Buckets holds per-bucket counts; Buckets[i] counts observations in
	// [2^i, 2^(i+1)) nanoseconds.
	Buckets [histBuckets]uint64 `json:"-"`
}

// Snapshot copies the histogram state. The total is loaded before the
// bucket counts so the total never exceeds the bucket sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.SumSeconds = float64(h.sum.Load()) / 1e9
	return s
}

// Quantile estimates quantile q (in [0,1]) from the bucket boundaries;
// the estimate is the upper bound of the bucket holding the q-th
// observation, so it errs at most one power of two high.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			return time.Duration(BucketBound(i))
		}
	}
	return time.Duration(BucketBound(histBuckets - 1))
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry holds named metrics. Registration (Counter, Gauge, Histogram,
// GaugeFunc) takes a mutex and is idempotent by name; the returned
// metric handles update lock-free. A nil *Registry returns nil handles,
// so a plane wired for telemetry runs identically — minus the atomic
// ops — when none is mounted.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register inserts or retrieves the named metric, enforcing kind
// stability: re-registering a name with a different kind panics (a
// programming error, same family as prometheus.MustRegister).
func (r *Registry) register(name, help string, kind Kind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %q re-registered as kind %d (was %d)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or retrieves) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter).counter
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge).gauge
}

// Histogram registers (or retrieves) a log-bucketed latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindHistogram).hist
}

// GaugeFunc registers a gauge evaluated at scrape time — the bridge from
// existing stats structs (forge cache size, pipeline queue depth) into
// the registry without double accounting. Re-registering a name replaces
// its function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, help, KindGaugeFunc)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// MetricSnapshot is one metric's scrape-time state. Exactly one of the
// value fields is meaningful, selected by Kind.
type MetricSnapshot struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64           // counter, gauge, gaugefunc
	Hist  HistogramSnapshot // histogram
}

// Snapshot captures every registered metric, sorted by name.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, len(r.ordered))
	copy(ms, r.ordered)
	r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Value())
		case KindGauge:
			s.Value = float64(m.gauge.Value())
		case KindGaugeFunc:
			if m.fn != nil {
				s.Value = m.fn()
			}
		case KindHistogram:
			s.Hist = m.hist.Snapshot()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
