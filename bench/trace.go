package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The harness's own span shims. Spans are recorded from the benchmark's
// files only, around calls into each layer's exported functions and at
// the seams the harness assembles (accept loops, dial funcs, handlers,
// sinks, round trippers); spans inside the program are a later issue.
// A nil *recorder means tracing is off: every method is nil-safe, and
// the untraced phase never reads the clock for a span.

// spanName indexes spanNames; spans store the index, not the string.
type spanName uint8

const (
	spRound spanName = iota
	spProbeOp
	spDial
	spProbe
	spClientReport
	spHandleConn
	spUpstreamLeg
	spRespond
	spPostOp
	spRoundTrip
	spBatchHandler
	spSink
	spRouteOp
	spClusterIngest
	spReplTail
	spServeTail
	spStudyRun
	spStudyPrelude
	spStoreIngest
	spRender
)

var spanNames = [...]string{
	spRound:         "bench.round",
	spProbeOp:       "bench.probe_op",
	spDial:          "net.dial",
	spProbe:         "tlswire.probe",
	spClientReport:  "ingest.client_report",
	spHandleConn:    "proxyengine.handleconn",
	spUpstreamLeg:   "proxyengine.upstream_leg",
	spRespond:       "tlswire.respond",
	spPostOp:        "bench.post_op",
	spRoundTrip:     "http.roundtrip",
	spBatchHandler:  "ingest.batch_handler",
	spSink:          "ingest.sink",
	spRouteOp:       "bench.route_op",
	spClusterIngest: "cluster.ingest_handler",
	spReplTail:      "cluster.repl_tail",
	spServeTail:     "durable.serve_tail",
	spStudyRun:      "study.run",
	spStudyPrelude:  "study.prelude",
	spStoreIngest:   "store.ingest",
	spRender:        "analysis.render",
}

// opRoots are the per-operation root spans: their self time is wall no
// layer span covers, which is what bench.unattributed_share reports.
var opRoots = map[spanName]bool{spProbeOp: true, spPostOp: true, spRouteOp: true}

// span is one timed call. Start and End are nanoseconds since the
// recorder's epoch. Op is the probe, batch or round the span belongs to.
// An aggregate span (store.ingest, ingest.sink) stands for many short
// calls: it starts at the first and lasts their summed duration.
type span struct {
	ID     uint64
	Parent uint64
	Op     uint64
	Start  int64
	End    int64
	Name   spanName
}

type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID before the span ends, so children started
// meanwhile can name their parent. 0 when tracing is off.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// now reads the clock only when a span will consume it.
func (r *recorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) add(name spanName, id, parent, op uint64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// phaseLabel prefixes a check with the phase it ran in.
func (r *recorder) phaseLabel() string {
	if r == nil {
		return "untraced"
	}
	return "traced"
}

// snapshot returns the spans recorded so far. A handler still unwinding
// after its server was closed may add one later; it is not in the
// snapshot.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[:len(r.spans):len(r.spans)]
}

// reset drops the spans recorded so far (a warm-up's).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// portTable links a server-side span to the client-side span that caused
// it without touching the bytes on the wire: the dialing side stores its
// span ID under its local port before it writes, and the accept loop
// reads it back from the connection's remote port once the handler has
// returned (a handler cannot return before it has read what the dialer
// wrote). One table per listener: a local port is unique per
// destination, not per host.
type portTable [1 << 16]atomic.Uint64

// layerTotals sums one span name over a trace.
type layerTotals struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// summarize computes each span's self time — its duration minus the part
// of that interval its child spans cover — and totals by name.
func summarize(spans []span) map[spanName]*layerTotals {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[spanName]*layerTotals)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		dur := s.End - s.Start
		t.Count++
		t.TotalNS += dur
		t.SelfNS += dur - covered(s, children[s.ID], spans)
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's: a child may start before its parent (a connection is
// accepted while the client is still dialing) or outlive it (a responder
// waits for the close the client sends after its span ended).
func covered(parent span, kids []int, spans []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// unattributedShare is the share of per-operation wall that no layer
// span covers: the self time of the operation roots over their duration.
func unattributedShare(tot map[spanName]*layerTotals) float64 {
	var self, wall int64
	for name, t := range tot {
		if opRoots[name] {
			self += t.SelfNS
			wall += t.TotalNS
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

func meanNS(tot map[spanName]*layerTotals, name spanName) float64 {
	t := tot[name]
	if t == nil || t.Count == 0 {
		return 0
	}
	return float64(t.TotalNS) / float64(t.Count)
}

func totalNS(tot map[spanName]*layerTotals, name spanName) int64 {
	if t := tot[name]; t != nil {
		return t.TotalNS
	}
	return 0
}

// traceFileSpans bounds the span file; the totals in its summary cover
// every span of the phase.
const traceFileSpans = 50_000

type traceSpanJSON struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// finishTrace totals a traced phase's spans and writes its span file.
func finishTrace(cfg runConfig, res *result, spans []span) (map[spanName]*layerTotals, error) {
	tot := summarize(spans)
	var err error
	res.TraceFile, err = writeTrace(cfg.outDir, cfg.workload, spans, tot)
	return tot, err
}

// writeTrace writes out/trace-<workload>.json after the timed part.
func writeTrace(dir, workload string, spans []span, tot map[spanName]*layerTotals) (string, error) {
	summary := make(map[string]*layerTotals, len(tot))
	for name, t := range tot {
		summary[spanNames[name]] = t
	}
	keep := spans
	if len(keep) > traceFileSpans {
		keep = keep[:traceFileSpans]
	}
	doc := struct {
		Workload   string                  `json:"workload"`
		Spans      int                     `json:"spans_recorded"`
		Written    int                     `json:"spans_written"`
		Summary    map[string]*layerTotals `json:"summary"`
		SpanDetail []traceSpanJSON         `json:"spans"`
	}{Workload: workload, Spans: len(spans), Written: len(keep), Summary: summary}
	for _, s := range keep {
		doc.SpanDetail = append(doc.SpanDetail, traceSpanJSON{s.ID, s.Parent, s.Op, spanNames[s.Name], s.Start, s.End})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o666)
}
