package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
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
// path is one lock-free scan. A ring record names a stage by its index
// here.
var knownStages = []string{
	StageProbe, StageMitmSniff, StageMitmUpstrm, StageMitmForge,
	StageMitmRespond, StageMitmSplice, StageDecode, StageObserve,
	StageQueue, StageWAL, StageStore,
}

// StageMetric returns the registry name of a stage's latency histogram.
func StageMetric(stage string) string { return "stage_" + stage + "_seconds" }

// Span is one recorded stage of a trace, as Lookup returns it.
type Span struct {
	Stage string `json:"stage"`
	// Start is the stage's start time on the recording process's clock;
	// cross-process ordering is by stage semantics, not clock.
	Start time.Time `json:"start"`
	// Duration is the stage latency.
	Duration time.Duration `json:"duration_ns"`
}

// Trace is every span recorded for one ID on this process, in filing
// order.
type Trace struct {
	ID    TraceID `json:"-"`
	Spans []Span  `json:"spans"`
}

// ReportSpans is one traced report's request-side stages, one entry of
// a request record: ingest_decode from Start (Unix ns) for Decode, then
// observe for Observe from the decode's end. A negative Observe means
// the report was never observed (its host has no authoritative chain).
type ReportSpans struct {
	ID              TraceID
	Start           int64
	Decode, Observe time.Duration
}

// The ring holds two kinds of record, each a header word and a run of
// payload words; the header's low bit is the kind, bits 8-15 a batch
// record's span count, and bits 16 up a request's entry count or a batch
// record's link count.
//
//   - batch: spans × (stage index, start ns, duration ns), then its key
//     and the IDs linked to it. The spans belong to the key and to every
//     linked ID: a shard commit, or one Record with no links.
//   - request: entries × (ID, decode start ns, decode ns, observe ns), a
//     request's ReportSpans.
const (
	recBatch   = 0
	recRequest = 1
)

// maxSpans bounds the spans of one batch record, so any record's spans
// fit a ring of one capacity unit.
const maxSpans = 12

// traceUnitWords is the ring words one unit of NewTracer's capacity
// buys: room for maxSpans one-span records of 5 words, more than one
// probe's whole path files (a reportd report costs 5 words in all, its
// request entry and its commit link).
const traceUnitWords = 64

// DefaultTraceCap sizes the trace ring when NewTracer gets cap <= 0:
// 4096 units, 2 MiB of ring.
const DefaultTraceCap = 4096

// Tracer records stage latencies into registry histograms and spans by
// trace ID into a bounded FIFO ring of pointer-free records. All methods
// are safe for concurrent use and nil-receiver-safe.
type Tracer struct {
	reg *Registry

	mu sync.Mutex
	// ring holds the records in [tail, head), counted in words ever
	// written; its length is a power of two. Filing a record evicts the
	// oldest whole records until it fits.
	ring       []uint64
	head, tail uint64

	// hists holds the known stages' histograms in knownStages order; it is
	// never mutated afterwards, so hist's scan needs no lock (and costs
	// less than a map read). Unknown stages use the locked overflow map.
	hists []*Histogram

	extraMu sync.Mutex
	extra   map[string]*Histogram

	dropped *Counter
	// filings counts records filed under mu: a path that files no span
	// must leave it still.
	filings *Counter
}

// NewTracer builds a tracer over reg (which may be nil: spans still
// record, histograms vanish) whose ring holds capacity × traceUnitWords
// words, rounded up to a power of two.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	words := traceUnitWords
	for words < capacity*traceUnitWords {
		words *= 2
	}
	t := &Tracer{
		reg:     reg,
		ring:    make([]uint64, words),
		hists:   make([]*Histogram, len(knownStages)),
		extra:   make(map[string]*Histogram),
		dropped: reg.Counter("trace_spans_dropped_total", "spans dropped because their record outgrew the trace ring"),
		filings: reg.Counter("trace_span_filings_total", "span records filed under the tracer lock"),
	}
	for i, st := range knownStages {
		t.hists[i] = reg.Histogram(StageMetric(st), "latency of the "+st+" stage")
	}
	return t
}

// stageIndex is stage's index in knownStages, or -1.
func stageIndex(stage string) int {
	for i, st := range knownStages {
		if st == stage {
			return i
		}
	}
	return -1
}

// hist returns the stage's histogram (nil when no registry is mounted).
func (t *Tracer) hist(stage string) *Histogram {
	if i := stageIndex(stage); i >= 0 {
		return t.hists[i]
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

// Record observes the stage latency and, for a nonzero ID, files the
// span as a one-span batch record keyed by id.
func (t *Tracer) Record(id TraceID, stage string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.hist(stage).Observe(d)
	t.FileBatch(id, []Span{{Stage: stage, Start: start, Duration: d}}, nil)
}

// FileBatch files the spans of one batched operation as one record,
// keyed by key and linked from every ID of ids, under one lock and
// without observing histograms (the caller observed them): Lookup of the
// key or of a linked ID returns the spans. A zero key files nothing.
// Spans of a stage outside the eleven named ones, and past maxSpans, are
// not kept; linked IDs past the ring's size are dropped and their spans
// counted in trace_spans_dropped_total.
func (t *Tracer) FileBatch(key TraceID, spans []Span, ids []TraceID) {
	if t == nil || key == 0 {
		return
	}
	var enc [3 * maxSpans]uint64 // the kept spans, 3 words each
	w := 0
	for _, sp := range spans {
		if st := stageIndex(sp.Stage); st >= 0 && w < len(enc) {
			enc[w], enc[w+1], enc[w+2] = uint64(st), uint64(sp.Start.UnixNano()), uint64(sp.Duration)
			w += 3
		}
	}
	n := min(len(ids), len(t.ring)-2-w)
	t.filings.Inc()
	t.mu.Lock()
	t.reserve(2 + w + n)
	t.put(uint64(n)<<16 | uint64(w/3)<<8 | recBatch)
	for _, x := range enc[:w] {
		t.put(x)
	}
	t.put(uint64(key))
	ring, mask, h := t.ring, uint64(len(t.ring)-1), t.head
	for _, id := range ids[:n] {
		ring[h&mask] = uint64(id)
		h++
	}
	t.head = h
	t.mu.Unlock()
	t.dropped.Add(uint64((len(ids) - n) * w / 3))
}

// FileReports files one request's traced reports as one request record,
// under one lock and without observing histograms. Entries past the
// ring's size are dropped, two spans each in trace_spans_dropped_total.
func (t *Tracer) FileReports(reports []ReportSpans) {
	if t == nil || len(reports) == 0 {
		return
	}
	n := min(len(reports), (len(t.ring)-1)/4)
	t.filings.Inc()
	t.mu.Lock()
	t.reserve(1 + 4*n)
	t.put(uint64(n)<<16 | recRequest)
	// The entries go in through locals: put's t.head, stored per word,
	// would cost more than the words.
	ring, mask, h := t.ring, uint64(len(t.ring)-1), t.head
	for _, r := range reports[:n] {
		ring[h&mask] = uint64(r.ID)
		ring[(h+1)&mask] = uint64(r.Start)
		ring[(h+2)&mask] = uint64(r.Decode)
		ring[(h+3)&mask] = uint64(r.Observe)
		h += 4
	}
	t.head = h
	t.mu.Unlock()
	t.dropped.Add(2 * uint64(len(reports)-n))
}

// word reads the ring word at position at. The caller holds t.mu.
func (t *Tracer) word(at uint64) uint64 { return t.ring[at&uint64(len(t.ring)-1)] }

// put appends w at the head. The caller holds t.mu and reserved room.
func (t *Tracer) put(w uint64) {
	t.ring[t.head&uint64(len(t.ring)-1)] = w
	t.head++
}

// reserve evicts the oldest records until n more words fit. A record's
// header is read before anything overwrites it. The caller holds t.mu.
func (t *Tracer) reserve(n int) {
	for t.head+uint64(n)-t.tail > uint64(len(t.ring)) {
		t.tail = t.end(t.tail)
	}
}

// ids locates the trace IDs of the record at at: count words from first,
// stride apart — a request's entries, or a batch record's key and links.
func (t *Tracer) ids(at uint64) (first, stride, count uint64) {
	hdr := t.word(at)
	if hdr&1 == recRequest {
		return at + 1, 4, hdr >> 16
	}
	return at + 1 + 3*(hdr>>8&0xff), 1, 1 + hdr>>16
}

// end is the position just past the record at at.
func (t *Tracer) end(at uint64) uint64 {
	first, stride, count := t.ids(at)
	return first + stride*count
}

// Lookup returns the spans recorded for id, oldest record first: a
// report's request entry (decode, observe) and every batch record keyed
// by or linked from it. It scans the whole ring — O(ring), for /trace.
func (t *Tracer) Lookup(id TraceID) (Trace, bool) {
	if t == nil || id == 0 {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := Trace{ID: id}
	for at := t.tail; at != t.head; at = t.end(at) {
		first, stride, count := t.ids(at)
		request := t.word(at)&1 == recRequest
		for s := first; s < first+stride*count; s += stride {
			if TraceID(t.word(s)) != id {
				continue
			}
			if request {
				start := time.Unix(0, int64(t.word(s+1)))
				dec, obs := time.Duration(t.word(s+2)), time.Duration(t.word(s+3))
				tr.Spans = append(tr.Spans, Span{StageDecode, start, dec})
				if obs >= 0 {
					tr.Spans = append(tr.Spans, Span{StageObserve, start.Add(dec), obs})
				}
				continue
			}
			for sp := at + 1; sp < first; sp += 3 {
				tr.Spans = append(tr.Spans, Span{knownStages[t.word(sp)], time.Unix(0, int64(t.word(sp+1))), time.Duration(t.word(sp + 2))})
			}
			break
		}
	}
	return tr, len(tr.Spans) > 0
}

// Recent returns up to n distinct trace IDs (all when n <= 0), most
// recently filed first.
func (t *Tracer) Recent(n int) []TraceID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var starts []uint64
	for at := t.tail; at != t.head; at = t.end(at) {
		starts = append(starts, at)
	}
	if n <= 0 {
		n = math.MaxInt
	}
	var out []TraceID
	seen := make(map[TraceID]bool)
	for k := len(starts) - 1; k >= 0 && len(out) < n; k-- {
		first, stride, count := t.ids(starts[k])
		for s := first + stride*count; s != first && len(out) < n; {
			s -= stride
			if id := TraceID(t.word(s)); id != 0 && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
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
			"id":    id.String(),
			"spans": tr.Spans,
		})
	})
}
