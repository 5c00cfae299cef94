package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tlsfof/internal/chaincache"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/ingest"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// reportServer is cmd/reportd's single-node stack assembled the way its
// newServer does with the flag defaults — 4 shards, batch 256, queue 64,
// blocking backpressure, default group commit, observation cache on,
// registry and tracer mounted, WAL in a data directory — behind a real
// loopback listener.
type reportServer struct {
	cfg      ingest.Config
	pipeline *ingest.Pipeline
	col      *core.Collector
	srv      *http.Server
	url      string // the /ingest/batch endpoint
	sink     *timedSink
}

// Span context travels from the harness's round tripper to its handler
// middleware in two request headers the program never reads.
const (
	hdrSpan = "X-Bench-Span"
	hdrOp   = "X-Bench-Op"
)

// spanContext reads the span and operation a request belongs to.
func spanContext(r *http.Request) (parent, op uint64) {
	parent, _ = strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	op, _ = strconv.ParseUint(r.Header.Get(hdrOp), 10, 64)
	return parent, op
}

func setSpanContext(r *http.Request, span, op uint64) {
	r.Header.Set(hdrSpan, strconv.FormatUint(span, 10))
	r.Header.Set(hdrOp, strconv.FormatUint(op, 10))
}

func pipelineConfig(walDir string, tracer *telemetry.Tracer) ingest.Config {
	return ingest.Config{Shards: 4, BatchSize: ingest.DefaultBatchSize, QueueDepth: 64, Block: true,
		Tracer: tracer, WALDir: walDir}
}

// startReportServer boots the stack over walDir. With a recorder the
// harness's shims are mounted: middleware around BatchHandler and, when
// sinkOps > 0, a core.Sink shim between collector and pipeline that
// accounts hand-off time to one of sinkOps operations.
func startReportServer(w *world, walDir, campaign string, rec *recorder, sinkOps int) (*reportServer, error) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	s := &reportServer{cfg: pipelineConfig(walDir, tracer)}
	var err error
	if s.pipeline, _, err = ingest.OpenPipeline(s.cfg); err != nil {
		return nil, err
	}
	s.pipeline.MountMetrics(reg)
	var sink core.Sink = s.pipeline
	if rec != nil && sinkOps > 0 {
		s.sink = &timedSink{next: s.pipeline, acc: make([]sinkAcc, sinkOps+1)}
		sink = s.sink
	}
	s.col = w.newCollector(sink, campaign)
	s.col.Tracer = tracer
	s.col.Cache = core.NewObservationCache(chaincache.DefaultCap, 0)

	var handler http.Handler = ingest.BatchHandler(s.col)
	if rec != nil {
		handler = s.spanMiddleware(rec, handler)
	}
	mux := http.NewServeMux()
	mux.Handle("/ingest/batch", handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: mux}
	s.url = "http://" + ln.Addr().String() + "/ingest/batch"
	go s.srv.Serve(ln)
	return s, nil
}

// spanMiddleware times one BatchHandler call and, when the request names
// its operation, attaches the sink shim's time for that operation as an
// aggregate child span.
func (s *reportServer) spanMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, op := spanContext(r)
		id := rec.newID()
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.add(spBatchHandler, id, parent, op, start, time.Now())
		if s.sink != nil && op != 0 && op < uint64(len(s.sink.acc)) {
			a := &s.sink.acc[op]
			first := time.Unix(0, a.first.Swap(0))
			rec.add(spSink, rec.newID(), id, op, first, first.Add(time.Duration(a.busy.Swap(0))))
		}
	})
}

// stop shuts the listener down and waits for in-flight handlers; the
// pipeline stays open for the caller to drain, merge and close.
func (s *reportServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// sinkAcc accumulates the sink shim's time for one operation.
type sinkAcc struct {
	first atomic.Int64 // UnixNano of the operation's first Ingest
	busy  atomic.Int64
}

// timedSink is the core.Sink shim between collector and pipeline: the
// time a report spends being handed to the pipeline, backpressure
// included. A report's trace ID names its operation in the bits above
// the low eight (see reportTrace).
type timedSink struct {
	next core.Sink
	acc  []sinkAcc
}

func (t *timedSink) Ingest(m core.Measurement) {
	t0 := time.Now()
	t.next.Ingest(m)
	d := int64(time.Since(t0))
	if op := m.Trace >> 8; op < uint64(len(t.acc)) {
		a := &t.acc[op]
		a.first.CompareAndSwap(0, t0.UnixNano())
		a.busy.Add(d)
	}
}

// reportTrace is the trace ID of report i of operation op: unique per
// report, as the fleet's are, and it names the operation.
func reportTrace(op uint64, i int) uint64 { return op<<8 | uint64(i&0xff) }

// spanTransport is the http.RoundTripper shim: it times the round trip
// and tells the server-side middleware which span and operation the
// request belongs to. op is read per request, so a client owned by one
// worker can name the worker's current operation.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
	op   *atomic.Uint64 // nil: operation unknown (a shared client)
	span *atomic.Uint64 // the op's root span, parent of the round trip
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	var op, parent uint64
	if t.op != nil {
		op, parent = t.op.Load(), t.span.Load()
	}
	setSpanContext(req, id, op)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.rec.add(spRoundTrip, id, parent, op, start, time.Now())
	return resp, err
}

// canonical is the comparison form of a store: store.Merge sorts every
// record stream, so two stores holding the same measurements serialize
// identically however the measurements were partitioned or ordered.
func canonical(dbs ...*store.DB) []byte { return store.Merge(0, dbs...).AppendSnapshot(nil) }

// serverCounters reads the stack's public counters after a phase.
func (s *reportServer) serverCounters(res *result) {
	out := res.Metrics
	st := s.pipeline.Stats()
	out.put("ingest.dropped", float64(st.Dropped), 1)
	out.put("ingest.wal_errors", float64(st.WALErrors), 1)
	res.check("pipeline dropped nothing", st.Dropped == 0 && st.WALErrors == 0, "dropped %d, WAL errors %d", st.Dropped, st.WALErrors)
	cs := s.col.Cache.Stats()
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		out.put("chaincache.hit_ratio", float64(cs.Hits)/float64(lookups), int(lookups))
	}
	out.put("chaincache.derives", float64(cs.Derives), 1)
}

// walCounters folds durable.Stats of every log a phase appended to.
func walCounters(out metricSet, logs []durable.Stats, stored int64, groupCommit bool) {
	var bytes, fsyncs, groups, grouped uint64
	for _, ws := range logs {
		bytes += ws.AppendedBytes
		fsyncs += ws.Fsyncs
		groups += ws.GroupAppends
		grouped += ws.GroupedBatches
	}
	out.put("durable.wal_bytes_per_measurement", float64(bytes)/float64(stored), int(stored))
	out.put("durable.fsyncs_per_kmeasurement", 1000*float64(fsyncs)/float64(stored), int(fsyncs))
	if groupCommit && groups > 0 {
		out.put("durable.group_size", float64(grouped)/float64(groups), int(groups))
	}
}
