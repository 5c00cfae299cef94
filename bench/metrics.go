package main

import (
	"math"
	"sort"
	"time"
)

// Workload names, in the order -workload all runs them.
const (
	wlStudySeq     = "study2-seq"
	wlStudySharded = "study2-sharded"
	wlLivewire     = "livewire"
	wlReportd      = "reportd-stream"
	wlCluster      = "cluster-ingest"
)

var workloadNames = []string{wlStudySeq, wlStudySharded, wlLivewire, wlReportd, wlCluster}

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions; TestBenchmarkJSONMatches keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which are not gated).
	Bound float64
	// On lists the workloads that measure the metric; elsewhere it reads
	// 0, because the layer did no work there.
	On []string
}

var studyWorkloads = []string{wlStudySeq, wlStudySharded}
var serverWorkloads = []string{wlLivewire, wlReportd}
var walWorkloads = []string{wlReportd, wlCluster}
var opWorkloads = []string{wlLivewire, wlReportd, wlCluster}

// endToEnd is what a user of the pipeline sees. Every one is measured
// with the harness's span shims off, on every workload, and none is ever
// 0. Every bound is the widest a driver accepts: on the 2-core sandbox
// the benchmark was sized on, a fixed integer loop on an idle machine
// takes 295 to 398 ms from one second to the next, run-to-run medians of
// the timings drift by a tenth with it, and the study's few per-run
// allocations (0.05 per test) vary by a tenth from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, workloadNames},
	{"measurements_per_s", "1/s", "higher", 0.25, workloadNames},
	{"cpu_us_per_measurement", "us", "lower", 0.25, workloadNames},
	{"allocs_per_measurement", "count", "lower", 0.25, workloadNames},
	{"alloc_bytes_per_measurement", "B", "lower", 0.25, workloadNames},
	{"latency_p50_us", "us", "lower", 0.25, workloadNames},
}

// perLayer is the ledger: one layer (package) per prefix. T metrics come
// from the traced phase, I metrics from isolated calls made after it on
// the workload's own inputs, C metrics from public counters.
var perLayer = []metricDef{
	{"tlswire.probe_direct_p50_us", "us", "lower", 0, []string{wlLivewire}},
	{"tlswire.probe_p99_us", "us", "lower", 0, []string{wlLivewire}},
	{"tlswire.probe_p999_us", "us", "lower", 0, []string{wlLivewire}},
	{"tlswire.respond_us", "us", "lower", 0, []string{wlLivewire}},
	{"tlswire.client_self_us", "us", "lower", 0, []string{wlLivewire}},
	{"proxyengine.added_p50_us", "us", "lower", 0, []string{wlLivewire}},
	{"proxyengine.handleconn_us", "us", "lower", 0, []string{wlLivewire}},
	{"proxyengine.upstream_leg_us", "us", "lower", 0, []string{wlLivewire}},
	{"proxyengine.self_us", "us", "lower", 0, []string{wlLivewire}},
	{"proxyengine.forge_hit_ratio", "ratio", "higher", 0, []string{wlLivewire}},
	{"proxyengine.forges", "count", "lower", 0, []string{wlLivewire}},
	{"ingest.post_p99_us", "us", "lower", 0, []string{wlReportd}},
	{"ingest.post_p999_us", "us", "lower", 0, []string{wlReportd}},
	{"ingest.handler_us_per_report", "us", "lower", 0, serverWorkloads},
	{"ingest.sink_us_per_report", "us", "lower", 0, []string{wlReportd}},
	{"ingest.decode_ns_per_report", "ns", "lower", 0, []string{wlReportd}},
	{"ingest.encode_ns_per_report", "ns", "lower", 0, []string{wlReportd}},
	{"ingest.bytes_per_report", "B", "lower", 0, []string{wlReportd}},
	{"ingest.pipeline_ns_per_measurement", "ns", "lower", 0, []string{wlStudySharded}},
	{"ingest.drain_ms", "ms", "lower", 0, serverWorkloads},
	{"ingest.dropped", "count", "lower", 0, []string{wlStudySharded, wlLivewire, wlReportd}},
	{"ingest.wal_errors", "count", "lower", 0, []string{wlStudySharded, wlLivewire, wlReportd}},
	{"core.collector_ns_per_report", "ns", "lower", 0, []string{wlReportd}},
	{"chaincache.hit_ratio", "ratio", "higher", 0, serverWorkloads},
	{"chaincache.derives", "count", "lower", 0, serverWorkloads},
	{"durable.wal_bytes_per_measurement", "B", "lower", 0, walWorkloads},
	{"durable.fsyncs_per_kmeasurement", "count", "lower", 0, []string{wlReportd}},
	{"durable.group_size", "count", "higher", 0, []string{wlReportd}},
	{"durable.append_ns_per_measurement", "ns", "lower", 0, []string{wlReportd}},
	{"durable.recover_us_per_measurement", "us", "lower", 0, []string{wlReportd}},
	{"durable.serve_tail_busy_share", "ratio", "lower", 0, []string{wlCluster}},
	{"durable.serve_tail_ns_per_frame", "ns", "lower", 0, []string{wlCluster}},
	{"store.ingest_ns_per_measurement", "ns", "lower", 0, []string{wlStudySeq}},
	{"store.merge_ms", "ms", "lower", 0, []string{wlStudySharded, wlCluster}},
	{"store.snapshot_encode_ms", "ms", "lower", 0, []string{wlStudySeq, wlCluster}},
	{"store.snapshot_decode_ms", "ms", "lower", 0, []string{wlStudySeq, wlCluster}},
	{"store.snapshot_bytes", "B", "lower", 0, []string{wlStudySeq, wlCluster}},
	{"store.retained_proxied", "count", "lower", 0, studyWorkloads},
	{"study.generate_ns_per_measurement", "ns", "lower", 0, []string{wlStudySeq}},
	{"study.prelude_ms", "ms", "lower", 0, []string{wlStudySeq}},
	{"adsim.runall_ms", "ms", "lower", 0, []string{wlStudySeq}},
	{"analysis.render_ms", "ms", "lower", 0, studyWorkloads},
	{"cluster.post_p99_us", "us", "lower", 0, []string{wlCluster}},
	{"cluster.ingest_handler_ms_per_batch", "ms", "lower", 0, []string{wlCluster}},
	{"cluster.tail_requests", "count", "lower", 0, []string{wlCluster}},
	{"cluster.replica_lag_frames", "count", "lower", 0, []string{wlCluster}},
	{"cluster.batches", "count", "lower", 0, []string{wlCluster}},
	{"cluster.retries", "count", "lower", 0, []string{wlCluster}},
	{"cluster.not_owner_retries", "count", "lower", 0, []string{wlCluster}},
	{"cluster.relayed", "count", "lower", 0, []string{wlCluster}},
	{"cluster.duplicate_acks", "count", "lower", 0, []string{wlCluster}},
	{"cluster.lost", "count", "lower", 0, []string{wlCluster}},
	{"cluster.degraded_acks", "count", "lower", 0, []string{wlCluster}},
	{"cluster.codec_ns_per_measurement", "ns", "lower", 0, []string{wlCluster}},
	{"cluster.snapshot_fetch_ms", "ms", "lower", 0, []string{wlCluster}},
	{"certgen.keygen_s", "s", "lower", 0, workloadNames},
	{"bench.unattributed_share", "ratio", "lower", 0, opWorkloads},
	{"bench.trace_overhead_share", "ratio", "lower", 0, workloadNames},
	{"bench.round_spread", "ratio", "lower", 0, workloadNames},
	{"bench.rounds", "count", "higher", 0, workloadNames},
	{"bench.failed_share", "ratio", "lower", 0, workloadNames},
	{"bench.peak_rss_mb", "MB", "lower", 0, workloadNames},
	{"bench.gc_cycles", "count", "lower", 0, workloadNames},
	{"bench.gc_pause_ms", "ms", "lower", 0, workloadNames},
}

func definedOn(d metricDef, workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// value is one reported number. N is the sample count behind it: rounds
// for a median of rounds, operations for a percentile, 1 for a counter.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's values by name and refuses a second write,
// so each metric is emitted once.
type metricSet map[string]value

func (m metricSet) put(name string, v float64, n int) {
	if _, dup := m[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	m[name] = value{Value: v, Unit: unitOf(name), N: n}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max − min) ÷ median, the noise indicator printed for round
// walls.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / median(xs)
}

// latencies is a bag of per-operation durations.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantileUS reads quantile q of a sorted bag, in microseconds.
func (l latencies) quantileUS(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(q * float64(len(l)))
	if i >= len(l) {
		i = len(l) - 1
	}
	return float64(l[i]) / float64(time.Microsecond)
}

func (l latencies) meanUS() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	return float64(sum) / float64(len(l)) / float64(time.Microsecond)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
