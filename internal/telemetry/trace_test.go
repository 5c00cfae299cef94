package telemetry

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestTraceSessionIDRoundTrip(t *testing.T) {
	for _, id := range []TraceID{1, 0xdeadbeef, 1<<64 - 1} {
		sid := AppendTraceSessionID(nil, id)
		if len(sid) != TraceSessionIDLen {
			t.Fatalf("session id length = %d, want %d", len(sid), TraceSessionIDLen)
		}
		got, ok := TraceFromSessionID(sid)
		if !ok || got != id {
			t.Fatalf("round trip of %v = %v, %v", id, got, ok)
		}
	}
	// Zero ID encodes but does not decode as traced — 0 means untraced.
	if _, ok := TraceFromSessionID(AppendTraceSessionID(nil, 0)); ok {
		t.Fatal("zero id must not decode as a trace")
	}
	// Foreign session ids must not decode: wrong length, wrong magic.
	for _, sid := range [][]byte{nil, {1, 2, 3}, make([]byte, 32), []byte("XXXX12345678")} {
		if _, ok := TraceFromSessionID(sid); ok {
			t.Fatalf("foreign session id %x decoded as a trace", sid)
		}
	}
}

func TestTraceIDStringParse(t *testing.T) {
	id := TraceID(0xabc123)
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("parse(%q) = %v, %v", id.String(), got, err)
	}
	if _, err := ParseTraceID("not-a-trace"); err == nil {
		t.Fatal("want error for junk input")
	}
	// Every string is read as hex, even one that looks decimal.
	if got, err := ParseTraceID("100"); err != nil || got != 0x100 {
		t.Fatalf(`parse("100") = %v, %v, want 0x100`, got, err)
	}
	// Seventeen hex digits overflow 64 bits (as a decimal it would fit).
	if got, err := ParseTraceID("10000000000000000"); err == nil {
		t.Fatalf("parse of a 17-digit id = %v, want error", got)
	}
}

func TestTracerRecordLookup(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	start := time.Unix(100, 0)
	tr.Record(42, StageProbe, start, time.Millisecond)
	tr.RecordSpan(42, StageObserve, start.Add(time.Millisecond), 10*time.Microsecond)

	got, ok := tr.Lookup(42)
	if !ok {
		t.Fatal("trace 42 not found")
	}
	if len(got.Spans) != 2 || got.Spans[0].Stage != StageProbe || got.Spans[1].Stage != StageObserve {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[0].Duration != time.Millisecond {
		t.Fatalf("probe span duration = %v", got.Spans[0].Duration)
	}

	// Record fed the stage histogram; RecordSpan did not.
	if c := reg.Histogram(StageMetric(StageProbe), "").Snapshot().Count; c != 1 {
		t.Fatalf("probe histogram count = %d, want 1", c)
	}
	if c := reg.Histogram(StageMetric(StageObserve), "").Snapshot().Count; c != 0 {
		t.Fatalf("observe histogram count = %d, want 0 (RecordSpan is span-only)", c)
	}
	// Observe feeds the histogram without creating a trace.
	tr.Observe(StageWAL, time.Second)
	if c := reg.Histogram(StageMetric(StageWAL), "").Snapshot().Count; c != 1 {
		t.Fatalf("wal histogram count = %d, want 1", c)
	}
	if _, ok := tr.Lookup(0); ok {
		t.Fatal("id 0 must never resolve")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(nil, 4)
	for id := TraceID(1); id <= 6; id++ {
		tr.RecordSpan(id, StageProbe, time.Time{}, time.Millisecond)
	}
	// Capacity 4: ids 1 and 2 evicted, 3..6 resident.
	for id := TraceID(1); id <= 2; id++ {
		if _, ok := tr.Lookup(id); ok {
			t.Fatalf("id %d should have been evicted", id)
		}
	}
	for id := TraceID(3); id <= 6; id++ {
		if _, ok := tr.Lookup(id); !ok {
			t.Fatalf("id %d should be resident", id)
		}
	}
	recent := tr.Recent(2)
	if len(recent) != 2 || recent[0] != 6 || recent[1] != 5 {
		t.Fatalf("recent = %v, want [6 5]", recent)
	}
}

func TestTracerSpanBound(t *testing.T) {
	tr := NewTracer(nil, 2)
	for i := 0; i < maxSpans+3; i++ {
		tr.RecordSpan(9, StageProbe, time.Time{}, time.Millisecond)
	}
	got, ok := tr.Lookup(9)
	if !ok || len(got.Spans) != maxSpans || !got.Truncated {
		t.Fatalf("spans = %d truncated = %v, want %d true", len(got.Spans), got.Truncated, maxSpans)
	}
}

func TestTracerConcurrent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base TraceID) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := base*1000 + TraceID(i%32) + 1
				tr.Record(id, StageProbe, time.Time{}, time.Millisecond)
				tr.Lookup(id)
				tr.Observe(StageWAL, time.Microsecond)
			}
		}(TraceID(w))
	}
	wg.Wait()
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(nil, 8)
	tr.RecordSpan(0xbeef, StageProbe, time.Unix(5, 0), 3*time.Millisecond)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?id=000000000000beef", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	var resp struct {
		ID    string `json:"id"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "000000000000beef" || len(resp.Spans) != 1 || resp.Spans[0].Stage != StageProbe {
		t.Fatalf("resp = %+v", resp)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var recent struct {
		Recent []string `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent.Recent) != 1 || recent.Recent[0] != "000000000000beef" {
		t.Fatalf("recent = %+v", recent)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?id=ffff", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown id status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?id=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("junk id status = %d, want 400", rec.Code)
	}
}

// span is a TracedSpan whose start time tags it, so order is checkable.
func span(id TraceID, stage string, tag int64) TracedSpan {
	return TracedSpan{ID: id, Span: Span{Stage: stage, Start: time.Unix(tag, 0), Duration: time.Duration(tag)}}
}

// tags returns the start-time tags of id's spans, in recording order.
func tags(t *testing.T, tr *Tracer, id TraceID) []int64 {
	t.Helper()
	got, ok := tr.Lookup(id)
	if !ok {
		t.Fatalf("trace %v not resident", id)
	}
	out := make([]int64, len(got.Spans))
	for i, sp := range got.Spans {
		out[i] = sp.Start.Unix()
	}
	return out
}

func TestRecordSpansInterleavedKeepsOrder(t *testing.T) {
	tr := NewTracer(nil, 8)
	tr.RecordSpans([]TracedSpan{
		span(1, StageDecode, 1), span(2, StageDecode, 2), span(1, StageObserve, 3),
		span(2, StageObserve, 4), span(1, StageQueue, 5), span(3, StageDecode, 6),
		span(1, StageWAL, 7),
	})
	for id, want := range map[TraceID][]int64{1: {1, 3, 5, 7}, 2: {2, 4}, 3: {6}} {
		if got := tags(t, tr, id); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %v tags = %v, want %v", id, got, want)
		}
	}
	if got := tr.Recent(0); !reflect.DeepEqual(got, []TraceID{3, 2, 1}) {
		t.Errorf("recent = %v, want [3 2 1] (newest created first)", got)
	}
}

func TestRecordSpansSkipsZeroIDs(t *testing.T) {
	tr := NewTracer(nil, 2)
	tr.RecordSpans([]TracedSpan{span(0, StageDecode, 1), span(5, StageDecode, 2), span(0, StageObserve, 3), span(5, StageObserve, 4)})
	if _, ok := tr.Lookup(0); ok {
		t.Fatal("id 0 must never resolve")
	}
	if got := tags(t, tr, 5); !reflect.DeepEqual(got, []int64{2, 4}) {
		t.Fatalf("trace 5 tags = %v, want [2 4]", got)
	}
	if got := tr.Recent(0); !reflect.DeepEqual(got, []TraceID{5}) {
		t.Fatalf("recent = %v, want [5]: a zero id took a ring slot", got)
	}
	tr.RecordSpans(nil)
	tr.RecordSpans([]TracedSpan{span(0, StageDecode, 9)})
	if got := tr.Recent(0); !reflect.DeepEqual(got, []TraceID{5}) {
		t.Fatalf("recent = %v after untraced batches, want [5]", got)
	}
}

func TestRecordSpansDroppedCountsOverflow(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 4)
	dropped := reg.Counter("trace_spans_dropped_total", "")
	var batch []TracedSpan
	for i := 0; i < maxSpans+5; i++ {
		batch = append(batch, span(1, StageProbe, int64(i)))
		if i < maxSpans+2 {
			batch = append(batch, span(2, StageProbe, int64(i)))
		}
	}
	batch = append(batch, span(3, StageProbe, 0))
	tr.RecordSpans(batch)
	if got := dropped.Value(); got != 5+2 {
		t.Fatalf("trace_spans_dropped_total = %d, want 7", got)
	}
	for _, id := range []TraceID{1, 2} {
		if got, _ := tr.Lookup(id); len(got.Spans) != maxSpans || !got.Truncated {
			t.Fatalf("trace %v: %d spans truncated=%v, want %d true", id, len(got.Spans), got.Truncated, maxSpans)
		}
	}
	if got, _ := tr.Lookup(3); len(got.Spans) != 1 || got.Truncated {
		t.Fatalf("trace 3 = %+v, want one span, not truncated", got)
	}
}

func TestRecordSpansEvictsOldestCreated(t *testing.T) {
	tr := NewTracer(nil, 4)
	// Six traces through a four-slot ring in one batch. Trace 1 comes
	// back after trace 5 evicted it: it is a new trace in the slot of the
	// oldest (2), and no span of it lands in 5's slot, which was 1's.
	tr.RecordSpans([]TracedSpan{
		span(1, StageDecode, 1), span(1, StageObserve, 2),
		span(2, StageDecode, 3), span(3, StageDecode, 4), span(4, StageDecode, 5),
		span(5, StageDecode, 6), span(5, StageObserve, 7),
		span(1, StageQueue, 8), span(1, StageWAL, 9),
		span(6, StageDecode, 10),
	})
	for _, id := range []TraceID{2, 3} {
		if _, ok := tr.Lookup(id); ok {
			t.Errorf("trace %v should have been evicted", id)
		}
	}
	for id, want := range map[TraceID][]int64{4: {5}, 5: {6, 7}, 1: {8, 9}, 6: {10}} {
		if got := tags(t, tr, id); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %v tags = %v, want %v", id, got, want)
		}
	}
	if got := tr.Recent(0); !reflect.DeepEqual(got, []TraceID{6, 1, 5, 4}) {
		t.Errorf("recent = %v, want [6 1 5 4]", got)
	}
}

// TestRecordSpansMatchesOneByOne is the batch path's property: any span
// sequence, recorded one span at a time or in batches of any size, leaves
// the same ring — every Lookup, Recent and the dropped count agree.
func TestRecordSpansMatchesOneByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	stages := []string{StageDecode, StageObserve, StageQueue, StageWAL, StageStore}
	for round := 0; round < 50; round++ {
		// A small ring and few IDs, so traces are evicted and revived, and
		// runs of one ID (the shortcut) are common and some overflow.
		capacity, ids := 1+rng.Intn(8), 1+rng.Intn(16)
		seq := make([]TracedSpan, rng.Intn(400))
		for i := range seq {
			id := TraceID(rng.Intn(ids + 1)) // 0 included
			if i > 0 && rng.Intn(2) == 0 {
				id = seq[i-1].ID
			}
			seq[i] = span(id, stages[rng.Intn(len(stages))], int64(i))
		}

		oneReg, batchReg := NewRegistry(), NewRegistry()
		one, batched := NewTracer(oneReg, capacity), NewTracer(batchReg, capacity)
		for _, sp := range seq {
			one.RecordSpan(sp.ID, sp.Stage, sp.Start, sp.Duration)
		}
		for rest := seq; len(rest) > 0; {
			n := min(len(rest), rng.Intn(40))
			batched.RecordSpans(rest[:n])
			rest = rest[n:]
		}

		for id := TraceID(0); id <= TraceID(ids); id++ {
			a, aok := one.Lookup(id)
			b, bok := batched.Lookup(id)
			if aok != bok || !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d id %v: one-by-one %v %+v, batched %v %+v", round, id, aok, a, bok, b)
			}
		}
		if a, b := one.Recent(0), batched.Recent(0); !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: recent one-by-one %v, batched %v", round, a, b)
		}
		name := "trace_spans_dropped_total"
		if a, b := oneReg.Counter(name, "").Value(), batchReg.Counter(name, "").Value(); a != b {
			t.Fatalf("round %d: dropped one-by-one %d, batched %d", round, a, b)
		}
	}
}

// TestTracerIndexMatchesModel drives the ring's open-addressed index
// through long runs of creations, revivals and evictions in tables of 2 to
// 32 cells, where probe runs collide and wrap, and checks after every span
// that exactly the IDs a FIFO model holds are found, and in their slots.
func TestTracerIndexMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 200; round++ {
		capacity, ids := 1+rng.Intn(16), 1+rng.Intn(48)
		tr := NewTracer(nil, capacity)
		var resident []TraceID // oldest-created first
		for step := 0; step < 300; step++ {
			id := TraceID(1 + rng.Intn(ids))
			if rng.Intn(4) == 0 {
				id <<= 40 // same low bits, different home
			}
			tr.RecordSpan(id, StageDecode, time.Time{}, 0)
			if !slices.Contains(resident, id) {
				if resident = append(resident, id); len(resident) > capacity {
					resident = resident[1:]
				}
			}
			filled := 0
			for _, c := range tr.index {
				if c.id != 0 {
					filled++
					if tr.recs[c.slot].id != c.id {
						t.Fatalf("round %d step %d: cell for %v points at slot %d holding %v", round, step, c.id, c.slot, tr.recs[c.slot].id)
					}
				}
			}
			if filled != len(resident) {
				t.Fatalf("round %d step %d: index holds %d IDs, model %d", round, step, filled, len(resident))
			}
			for _, id := range resident {
				if _, ok := tr.Lookup(id); !ok {
					t.Fatalf("round %d step %d: resident trace %v not found (cap %d, %d cells)", round, step, id, capacity, len(tr.index))
				}
			}
		}
	}
}
