// Package telemetry is the repo's unified observability plane: one
// registry of zero-allocation counters, gauges, and log-bucketed latency
// histograms; lightweight probe-to-table span tracing; a dual-format
// (JSON + Prometheus text) exposition handler; and an slog-backed
// structured-event ring buffer for post-mortem dumps.
//
// Every subsystem used to invent its own stats struct and every binary
// hand-rolled its own /metrics JSON. This package replaces that with one
// substrate (DESIGN.md §11):
//
//   - Registry: named metrics, registered once, updated lock-free. The
//     update operations (Counter.Inc/Add, Gauge.Set/Add,
//     Histogram.Observe) are a single atomic op on a fixed cell — zero
//     allocations, pinned by AllocsPerRun guards — so they are safe to
//     mount on the probe/ingest hot paths the BenchmarkProbeAllocs
//     family protects. Every metric type is nil-receiver-safe, so
//     instrumented code needs no "is telemetry mounted" branches.
//
//   - Tracer: assigns each probe a 64-bit trace ID, carried in-band in
//     the TLS ClientHello session-id field (probe → mitmd, see
//     EncodeTraceSessionID) and in the ingest wire codec's TFW3 frame
//     (probe → reportd), so one capture can be followed
//     probe → mitmd sniff/forge/respond → /ingest/batch decode →
//     observe → shard queue → WAL append → store merge. Each hop
//     observes a per-stage latency histogram in the registry and files
//     its span into one bounded FIFO ring of pointer-free records,
//     queryable by ID via Tracer.Handler: a one-span record per mitmd
//     stage, one record per reportd request (an entry per traced
//     report), and one per shard commit (its stages, linked from each
//     traced row). Lookup joins a report's records by scanning the ring.
//
//   - Handler: serves the registry as /metrics — one name per number, in
//     two encodings: a flat JSON object keyed by Prometheus family name,
//     and Prometheus text format with ?format=prometheus.
//
//   - EventRing: a fixed-capacity slog.Handler holding the most recent
//     structured events; binaries dump it on panic or SIGTERM so a
//     crashed run leaves a post-mortem trail.
//
//   - SideDoor: the one way a binary serves /metrics, /trace and
//     net/http/pprof beside its own service, each on its own listener,
//     and installs an EventRing behind its stderr logger.
package telemetry
