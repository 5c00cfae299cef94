package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one probe across every plane it touches. 0 means
// "untraced".
type TraceID uint64

// String renders the ID the way the /trace endpoints accept it.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID accepts the hex form String produces, or a decimal.
func ParseTraceID(s string) (TraceID, error) {
	if v, err := strconv.ParseUint(s, 16, 64); err == nil {
		return TraceID(v), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q", s)
	}
	return TraceID(v), nil
}

// The probe carries its trace ID to the interceptor in-band, inside the
// ClientHello session-id field — an opaque legacy field the probe (which
// owns its own TLS wire implementation) is free to use, and one every
// middlebox must tolerate. 12 bytes: a 4-byte magic plus the big-endian
// ID, well under the field's 32-byte bound.
var traceSessionMagic = [4]byte{'T', 'F', 'T', '1'}

// TraceSessionIDLen is the session-id length EncodeTraceSessionID emits.
const TraceSessionIDLen = 12

// AppendTraceSessionID appends the session-id encoding of id to dst —
// the zero-realloc path for probe loops reusing a scratch buffer.
func AppendTraceSessionID(dst []byte, id TraceID) []byte {
	dst = append(dst, traceSessionMagic[:]...)
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

// TraceFromSessionID extracts a trace ID from a ClientHello session id,
// reporting false for session ids that are not the probe's encoding.
func TraceFromSessionID(sid []byte) (TraceID, bool) {
	if len(sid) != TraceSessionIDLen || [4]byte(sid[:4]) != traceSessionMagic {
		return 0, false
	}
	id := TraceID(binary.BigEndian.Uint64(sid[4:]))
	return id, id != 0
}

// Stage names. Each stage gets one latency histogram in the registry
// (stage_<name>_seconds) and appears as a span in per-ID traces.
const (
	StageProbe       = "probe"         // client partial handshake, wire to wire
	StageMitmSniff   = "mitm_sniff"    // interceptor: ClientHello read + parse
	StageMitmUpstrm  = "mitm_upstream" // interceptor: authoritative-chain fetch (cached after first)
	StageMitmForge   = "mitm_forge"    // interceptor: engine decision incl. chain mint/cache hit
	StageMitmRespond = "mitm_respond"  // interceptor: forged flight served to the client
	StageMitmSplice  = "mitm_splice"   // interceptor: whitelisted passthrough copy
	StageDecode      = "ingest_decode" // reportd: one wire frame off the batch stream
	StageObserve     = "observe"       // reportd: chain compare + classify (memo hit or full derive)
	StageQueue       = "shard_queue"   // pipeline: wait for the shard's commit lock, per committed batch
	StageWAL         = "wal_append"    // shard engine: write-ahead append of the batch
	StageStore       = "store_merge"   // shard engine: batch folded into the shard store
)

// knownStages pre-registers every stage histogram so the recording hot
// path is one lock-free map read.
var knownStages = []string{
	StageProbe, StageMitmSniff, StageMitmUpstrm, StageMitmForge,
	StageMitmRespond, StageMitmSplice, StageDecode, StageObserve,
	StageQueue, StageWAL, StageStore,
}

// StageMetric returns the registry name of a stage's latency histogram.
func StageMetric(stage string) string { return "stage_" + stage + "_seconds" }

// maxSpans bounds the spans retained per trace; a probe crossing every
// plane records 8 (probe, sniff, upstream, forge, decode, observe,
// queue, wal, store is 9 — respond replaces splice and upstream is often
// a cache hit, but size for the full path anyway).
const maxSpans = 12

// Span is one recorded stage of a trace.
type Span struct {
	Stage string `json:"stage"`
	// Start is the stage's start time on the recording process's clock;
	// cross-process ordering is by stage semantics, not clock.
	Start time.Time `json:"start"`
	// Duration is the stage latency.
	Duration time.Duration `json:"duration_ns"`
}

// Trace is every span recorded for one ID on this process, in recording
// order.
type Trace struct {
	ID    TraceID `json:"-"`
	Spans []Span  `json:"spans"`
	// Truncated reports spans dropped past the per-trace bound.
	Truncated bool `json:"truncated,omitempty"`
}

// traceRec is one ring slot. Fixed-size span storage keeps recording
// allocation-free once a trace's slot exists.
type traceRec struct {
	id     TraceID
	n      int
	lost   bool
	stages [maxSpans]Span
}

// DefaultTraceCap bounds the trace ring when NewTracer gets cap <= 0:
// enough to hold a probe fleet's recent history without growing.
const DefaultTraceCap = 4096

// Tracer records spans by trace ID into a bounded ring and stage
// latencies into registry histograms. All methods are safe for
// concurrent use and nil-receiver-safe.
type Tracer struct {
	reg *Registry

	mu    sync.Mutex
	recs  []traceRec
	index map[TraceID]int
	next  int

	// hists maps stage → histogram. Known stages are pre-registered and
	// the map is never mutated afterwards, so reads need no lock; unknown
	// stages fall back to a locked overflow map.
	hists map[string]*Histogram

	extraMu sync.Mutex
	extra   map[string]*Histogram

	dropped *Counter
}

// NewTracer builds a tracer over reg (which may be nil: spans still
// record, histograms vanish) retaining the last cap traces.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	t := &Tracer{
		reg:     reg,
		recs:    make([]traceRec, capacity),
		index:   make(map[TraceID]int, capacity),
		hists:   make(map[string]*Histogram, len(knownStages)),
		extra:   make(map[string]*Histogram),
		dropped: reg.Counter("trace_spans_dropped_total", "spans dropped because a trace hit its span bound"),
	}
	for _, st := range knownStages {
		t.hists[st] = reg.Histogram(StageMetric(st), "latency of the "+st+" stage")
	}
	return t
}

// hist returns the stage's histogram (nil when no registry is mounted).
func (t *Tracer) hist(stage string) *Histogram {
	if h, ok := t.hists[stage]; ok {
		return h
	}
	if t.reg == nil {
		return nil
	}
	t.extraMu.Lock()
	defer t.extraMu.Unlock()
	h, ok := t.extra[stage]
	if !ok {
		h = t.reg.Histogram(StageMetric(stage), "latency of the "+stage+" stage")
		t.extra[stage] = h
	}
	return h
}

// Observe records a stage latency into its histogram without touching
// any trace — the per-batch path (one WAL append covers many
// measurements; the histogram should count the append once).
func (t *Tracer) Observe(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.hist(stage).Observe(d)
}

// Record observes the stage latency and, for a nonzero ID, appends a
// span to the trace.
func (t *Tracer) Record(id TraceID, stage string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.hist(stage).Observe(d)
	if id != 0 {
		t.RecordSpan(id, stage, start, d)
	}
}

// RecordSpan appends a span to the trace without observing the
// histogram — the per-measurement path inside batched stages, where the
// batch already observed once.
func (t *Tracer) RecordSpan(id TraceID, stage string, start time.Time, d time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	i, ok := t.index[id]
	if !ok {
		i = t.next
		t.next = (t.next + 1) % len(t.recs)
		if old := &t.recs[i]; old.id != 0 {
			delete(t.index, old.id)
		}
		t.recs[i] = traceRec{id: id}
		t.index[id] = i
	}
	rec := &t.recs[i]
	if rec.n >= maxSpans {
		rec.lost = true
		t.mu.Unlock()
		t.dropped.Inc()
		return
	}
	rec.stages[rec.n] = Span{Stage: stage, Start: start, Duration: d}
	rec.n++
	t.mu.Unlock()
}

// Lookup returns the recorded trace for id.
func (t *Tracer) Lookup(id TraceID) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[id]
	if !ok {
		return Trace{}, false
	}
	rec := &t.recs[i]
	tr := Trace{ID: id, Spans: make([]Span, rec.n), Truncated: rec.lost}
	copy(tr.Spans, rec.stages[:rec.n])
	return tr, true
}

// Recent returns up to n trace IDs, most recently created first.
func (t *Tracer) Recent(n int) []TraceID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.recs) {
		n = len(t.recs)
	}
	out := make([]TraceID, 0, n)
	for off := 1; off <= len(t.recs) && len(out) < n; off++ {
		i := (t.next - off + len(t.recs)) % len(t.recs)
		if t.recs[i].id != 0 {
			out = append(out, t.recs[i].id)
		}
	}
	return out
}

// Handler serves traces: GET ?id=<hex> returns one trace's spans, no id
// returns the most recent trace IDs. Mounted as /trace on every plane's
// metrics listener.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		q := r.URL.Query().Get("id")
		if q == "" {
			ids := t.Recent(64)
			strs := make([]string, len(ids))
			for i, id := range ids {
				strs[i] = id.String()
			}
			json.NewEncoder(w).Encode(map[string]any{"recent": strs})
			return
		}
		id, err := ParseTraceID(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tr, ok := t.Lookup(id)
		if !ok {
			http.Error(w, "unknown trace id", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"id":        id.String(),
			"spans":     tr.Spans,
			"truncated": tr.Truncated,
		})
	})
}
