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

// ParseTraceID accepts the hex form String produces (leading zeros
// optional, so "100" is 0x100).
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
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
// path is one lock-free scan.
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

// TracedSpan is a span with the ID of the trace it belongs to: the unit
// RecordSpans files.
type TracedSpan struct {
	ID TraceID
	Span
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

	mu   sync.Mutex
	recs []traceRec
	// index maps each resident trace ID to its slot in recs: open
	// addressing with linear probing, at least twice len(recs) cells (a
	// power of two, so at most half full); a zero ID marks an empty cell.
	index []indexCell
	shift uint // 64 - log2(len(index)): home takes the hash's top bits
	next  int

	// hists holds the known stages' histograms in knownStages order; it is
	// never mutated afterwards, so hist's scan needs no lock (and costs
	// less than a map read). Unknown stages use the locked overflow map.
	hists []*Histogram

	extraMu sync.Mutex
	extra   map[string]*Histogram

	dropped *Counter
	// filings counts RecordSpans calls that took mu: a path that files
	// no span must leave it still.
	filings *Counter
}

// NewTracer builds a tracer over reg (which may be nil: spans still
// record, histograms vanish) retaining the last cap traces.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	shift := uint(63)
	for 1<<(64-shift) < 2*capacity {
		shift--
	}
	t := &Tracer{
		reg:     reg,
		recs:    make([]traceRec, capacity),
		index:   make([]indexCell, 1<<(64-shift)),
		shift:   shift,
		hists:   make([]*Histogram, len(knownStages)),
		extra:   make(map[string]*Histogram),
		dropped: reg.Counter("trace_spans_dropped_total", "spans dropped because a trace hit its span bound"),
		filings: reg.Counter("trace_span_filings_total", "span batches filed under the tracer lock"),
	}
	for i, st := range knownStages {
		t.hists[i] = reg.Histogram(StageMetric(st), "latency of the "+st+" stage")
	}
	return t
}

// hist returns the stage's histogram (nil when no registry is mounted).
func (t *Tracer) hist(stage string) *Histogram {
	for i, st := range knownStages {
		if st == stage {
			return t.hists[i]
		}
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

// ObserveBatch adds a batch of one stage's latencies to its histogram and
// empties the batch.
func (t *Tracer) ObserveBatch(stage string, b *HistogramBatch) {
	if t != nil {
		b.addTo(t.hist(stage))
	}
}

// Record observes the stage latency and, for a nonzero ID, appends a
// span to the trace.
func (t *Tracer) Record(id TraceID, stage string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.hist(stage).Observe(d)
	t.RecordSpan(id, stage, start, d)
}

// AppendSpan is Record with the span deferred: it observes the stage
// latency now and, for a nonzero ID, appends the span to dst for a later
// RecordSpans — the per-report path of a request that files its spans
// once.
func (t *Tracer) AppendSpan(dst []TracedSpan, id TraceID, stage string, start time.Time, d time.Duration) []TracedSpan {
	if t == nil {
		return dst
	}
	t.hist(stage).Observe(d)
	return AppendTraced(dst, id, stage, start, d)
}

// AppendTraced is AppendSpan without the histogram, for a caller that
// observes the stage some other way (a HistogramBatch, or not at all).
func AppendTraced(dst []TracedSpan, id TraceID, stage string, start time.Time, d time.Duration) []TracedSpan {
	if id == 0 {
		return dst
	}
	return append(dst, TracedSpan{ID: id, Span: Span{Stage: stage, Start: start, Duration: d}})
}

// RecordSpan appends one span to the trace without observing the
// histogram.
func (t *Tracer) RecordSpan(id TraceID, stage string, start time.Time, d time.Duration) {
	if id != 0 {
		t.RecordSpans([]TracedSpan{{ID: id, Span: Span{Stage: stage, Start: start, Duration: d}}})
	}
}

// RecordSpans appends each span to its trace, in order, under one lock
// and without observing histograms: the per-batch path, whose stages were
// observed already. Zero IDs are skipped. The ring ends as after one
// RecordSpan per span: traces are created (the oldest-created evicted) in
// span order, and spans past a trace's bound count as dropped.
func (t *Tracer) RecordSpans(spans []TracedSpan) {
	if t == nil || len(spans) == 0 {
		return
	}
	var dropped uint64
	t.filings.Inc()
	t.mu.Lock()
	last, i := TraceID(0), 0
	for k := range spans {
		sp := &spans[k]
		if sp.ID == 0 {
			continue
		}
		// Consecutive spans of one trace share its slot; the slot check
		// keeps the shortcut from writing into a slot a newer trace took.
		if sp.ID != last || t.recs[i].id != sp.ID {
			i, last = t.slot(sp.ID), sp.ID
		}
		rec := &t.recs[i]
		if rec.n >= maxSpans {
			rec.lost = true
			dropped++
			continue
		}
		rec.stages[rec.n] = sp.Span
		rec.n++
	}
	t.mu.Unlock()
	t.dropped.Add(dropped)
}

// indexCell is one cell of the ring's index.
type indexCell struct {
	id   TraceID
	slot int32
}

// home is id's first probe in t.index (Fibonacci hashing).
func (t *Tracer) home(id TraceID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> t.shift)
}

// cell returns the index cell holding id, or the empty cell that ends
// its probe run. id must be nonzero.
func (t *Tracer) cell(id TraceID) int {
	mask := len(t.index) - 1
	i := t.home(id)
	for t.index[i].id != id && t.index[i].id != 0 {
		i = (i + 1) & mask
	}
	return i
}

// unindex empties id's cell and moves later cells of the probe run back
// into the gap wherever their home allows (backward-shift deletion), so
// every probe run stays unbroken without tombstones.
func (t *Tracer) unindex(id TraceID) {
	mask := len(t.index) - 1
	i := t.cell(id)
	for j := (i + 1) & mask; t.index[j].id != 0; j = (j + 1) & mask {
		// The cell at j may fill the gap at i unless its home lies
		// cyclically in (i, j].
		h := t.home(t.index[j].id)
		if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = indexCell{}
}

// slot returns id's ring slot, creating the trace — and evicting the
// oldest-created one — when id is not resident. The caller holds t.mu.
func (t *Tracer) slot(id TraceID) int {
	c := t.cell(id)
	if t.index[c].id == id {
		return int(t.index[c].slot)
	}
	i := t.next
	if t.next++; t.next == len(t.recs) {
		t.next = 0
	}
	rec := &t.recs[i]
	if rec.id != 0 {
		t.unindex(rec.id)
		c = t.cell(id) // the deletion may have moved the run's end
	}
	// Spans past n are never read, so the evicted trace's stay in place.
	rec.id, rec.n, rec.lost = id, 0, false
	t.index[c] = indexCell{id, int32(i)}
	return i
}

// Lookup returns the recorded trace for id.
func (t *Tracer) Lookup(id TraceID) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cell(id)
	if id == 0 || t.index[c].id != id {
		return Trace{}, false
	}
	rec := &t.recs[t.index[c].slot]
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
