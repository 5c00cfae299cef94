package telemetry

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
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

// at is a start time tagged by tag, exact through the ring's ns words.
func at(tag int64) time.Time { return time.Unix(0, 1e15+tag*1e6) }

// stagesOf returns id's span stages in filing order (nil when id is not
// resident).
func stagesOf(tr *Tracer, id TraceID) []string {
	got, _ := tr.Lookup(id)
	var out []string
	for _, sp := range got.Spans {
		out = append(out, sp.Stage)
	}
	return out
}

// spansEqual compares spans by stage, instant and duration.
func spansEqual(a, b []Span) bool {
	return slices.EqualFunc(a, b, func(x, y Span) bool {
		return x.Stage == y.Stage && x.Start.Equal(y.Start) && x.Duration == y.Duration
	})
}

// commitSpans are the stage spans a durable pipeline commit files.
var commitSpans = []Span{{StageQueue, at(1), 1}, {StageWAL, at(2), 2}, {StageStore, at(3), 3}}

func TestTracerRecordLookup(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	start := time.Unix(100, 0)
	tr.Record(42, StageProbe, start, time.Millisecond)
	tr.FileBatch(42, []Span{{StageObserve, start.Add(time.Millisecond), 10 * time.Microsecond}}, nil)

	got, ok := tr.Lookup(42)
	if !ok {
		t.Fatal("trace 42 not found")
	}
	want := []Span{{StageProbe, start, time.Millisecond}, {StageObserve, start.Add(time.Millisecond), 10 * time.Microsecond}}
	if !spansEqual(got.Spans, want) {
		t.Fatalf("spans = %+v, want %+v", got.Spans, want)
	}

	// Record fed the stage histogram; FileBatch did not.
	if c := reg.Histogram(StageMetric(StageProbe), "").Snapshot().Count; c != 1 {
		t.Fatalf("probe histogram count = %d, want 1", c)
	}
	if c := reg.Histogram(StageMetric(StageObserve), "").Snapshot().Count; c != 0 {
		t.Fatalf("observe histogram count = %d, want 0 (FileBatch is span-only)", c)
	}
	// Observe feeds the histogram without filing a record.
	tr.Observe(StageWAL, time.Second)
	if c := reg.Histogram(StageMetric(StageWAL), "").Snapshot().Count; c != 1 {
		t.Fatalf("wal histogram count = %d, want 1", c)
	}
	if got := tr.Recent(0); !slices.Equal(got, []TraceID{42}) {
		t.Fatalf("recent = %v, want [42]", got)
	}
	if _, ok := tr.Lookup(0); ok {
		t.Fatal("id 0 must never resolve")
	}
}

// TestTracerRingEviction: the ring is FIFO by filing, not LRU. A
// one-unit ring (64 words) holds twelve 5-word one-span records; the
// next ones evict the oldest, whole, and a Lookup refreshes nothing.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(nil, 1)
	for id := TraceID(1); id <= 14; id++ {
		tr.Record(id, StageProbe, at(int64(id)), time.Millisecond)
	}
	for id := TraceID(1); id <= 14; id++ {
		if _, ok := tr.Lookup(id); ok != (id > 2) {
			t.Fatalf("id %d resident = %v, want %v", id, ok, id > 2)
		}
	}
	if recent := tr.Recent(2); !slices.Equal(recent, []TraceID{14, 13}) {
		t.Fatalf("recent = %v, want [14 13]", recent)
	}
	tr.Record(15, StageProbe, at(15), time.Millisecond)
	if _, ok := tr.Lookup(3); ok {
		t.Fatal("id 3 survived its eviction: a lookup refreshed it")
	}
}

// TestTracerSpanBound: a trace has no span bound of its own — the ring
// bounds it — while one batch record keeps at most maxSpans spans, and
// of the named stages only.
func TestTracerSpanBound(t *testing.T) {
	tr := NewTracer(nil, 4)
	for i := 0; i < 2*maxSpans; i++ {
		tr.Record(9, StageProbe, at(int64(i)), time.Millisecond)
	}
	if n := len(stagesOf(tr, 9)); n != 2*maxSpans {
		t.Fatalf("trace 9 kept %d of %d spans", n, 2*maxSpans)
	}
	many := []Span{{"custom", at(0), 1}}
	for i := 0; i < maxSpans+3; i++ {
		many = append(many, Span{StageWAL, at(int64(i)), 1})
	}
	tr.FileBatch(10, many, nil)
	if got, _ := tr.Lookup(10); len(got.Spans) != maxSpans || !spansEqual(got.Spans, many[1:maxSpans+1]) {
		t.Fatalf("batch record kept %+v, want the first %d named-stage spans", got.Spans, maxSpans)
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
				tr.FileReports([]ReportSpans{{ID: id, Start: 1, Decode: 2, Observe: 3}})
				tr.FileBatch(id, commitSpans, []TraceID{id, id + 1})
				tr.Lookup(id)
				tr.Observe(StageWAL, time.Microsecond)
			}
		}(TraceID(w))
	}
	wg.Wait()
	if got := tr.Recent(0); len(got) == 0 {
		t.Fatal("no trace resident after concurrent filings")
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(nil, 8)
	tr.Record(0xbeef, StageProbe, time.Unix(5, 0), 3*time.Millisecond)

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

// TestRecordSpansInterleavedKeepsOrder: a trace's spans come back in
// filing order across records of every kind — its request entry, a
// one-span record, the commit that links it — with records of other
// traces in between; an observe span starts where its decode ended.
func TestRecordSpansInterleavedKeepsOrder(t *testing.T) {
	tr := NewTracer(nil, 8)
	tr.FileReports([]ReportSpans{{1, 10, 1, 2}, {2, 20, 1, 2}, {3, 30, 1, -1}})
	tr.Record(2, StageProbe, at(0), 1)
	tr.FileBatch(1, commitSpans, []TraceID{1, 2})
	tr.Record(1, StageMitmSniff, at(4), 1)
	for id, want := range map[TraceID][]string{
		1: {StageDecode, StageObserve, StageQueue, StageWAL, StageStore, StageMitmSniff},
		2: {StageDecode, StageObserve, StageProbe, StageQueue, StageWAL, StageStore},
		3: {StageDecode}, // never observed
	} {
		if got := stagesOf(tr, id); !slices.Equal(got, want) {
			t.Errorf("trace %v stages = %v, want %v", id, got, want)
		}
	}
	got, _ := tr.Lookup(1)
	if want := []Span{{StageDecode, time.Unix(0, 10), 1}, {StageObserve, time.Unix(0, 11), 2}}; !spansEqual(got.Spans[:2], want) {
		t.Errorf("trace 1 request spans = %+v, want %+v", got.Spans[:2], want)
	}
	if got := tr.Recent(0); !slices.Equal(got, []TraceID{1, 2, 3}) {
		t.Errorf("recent = %v, want [1 2 3] (most recently filed first)", got)
	}
}

// TestRecordSpansSkipsZeroIDs: trace 0 means untraced. Record of it, a
// zero-keyed FileBatch and an empty FileReports file nothing and take no
// tracer lock; an entry or link carrying 0 never resolves and never
// shows in Recent.
func TestRecordSpansSkipsZeroIDs(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 2)
	filings := reg.Counter("trace_span_filings_total", "")
	tr.Record(0, StageProbe, at(0), 1)
	tr.FileBatch(0, commitSpans, []TraceID{5})
	tr.FileReports(nil)
	if n := filings.Value(); n != 0 || tr.Recent(0) != nil {
		t.Fatalf("untraced filings: %d filings, recent %v; want none", n, tr.Recent(0))
	}
	tr.FileReports([]ReportSpans{{0, 1, 1, 1}, {5, 2, 1, 1}})
	tr.FileBatch(5, commitSpans, []TraceID{0, 5})
	if _, ok := tr.Lookup(0); ok {
		t.Fatal("id 0 must never resolve")
	}
	if got, want := stagesOf(tr, 5), []string{StageDecode, StageObserve, StageQueue, StageWAL, StageStore}; !slices.Equal(got, want) {
		t.Fatalf("trace 5 stages = %v, want %v", got, want)
	}
	if got := tr.Recent(0); !slices.Equal(got, []TraceID{5}) || filings.Value() != 2 {
		t.Fatalf("recent = %v after %d filings, want [5] after 2", got, filings.Value())
	}
}

// TestRecordSpansDroppedCountsOverflow: a record longer than the whole
// ring keeps what fits — a request its first entries, a commit its
// spans, key and first links — and counts the spans of the rest in
// trace_spans_dropped_total.
func TestRecordSpansDroppedCountsOverflow(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1) // 64 words
	dropped := reg.Counter("trace_spans_dropped_total", "")
	reports := make([]ReportSpans, 20)
	for i := range reports {
		reports[i] = ReportSpans{ID: TraceID(i + 1), Start: int64(i), Decode: 1, Observe: 1}
	}
	tr.FileReports(reports)
	// (64-1)/4 = 15 entries fit; 5 are dropped, two spans each.
	if got := dropped.Value(); got != 10 {
		t.Fatalf("trace_spans_dropped_total = %d, want 10", got)
	}
	for i, r := range reports {
		if _, ok := tr.Lookup(r.ID); ok != (i < 15) {
			t.Fatalf("entry %d resident = %v, want %v", i, ok, i < 15)
		}
	}
	ids := make([]TraceID, 100)
	for i := range ids {
		ids[i] = TraceID(101 + i)
	}
	tr.FileBatch(ids[0], commitSpans, ids)
	// 64 - 2 - 3*3 = 53 links fit; 47 are dropped, three spans each.
	if got := dropped.Value(); got != 10+47*3 {
		t.Fatalf("trace_spans_dropped_total = %d, want %d", got, 10+47*3)
	}
	if len(stagesOf(tr, ids[52])) != 3 || stagesOf(tr, ids[53]) != nil {
		t.Fatalf("link 52 has %v, link 53 %v; want the commit's 3 spans, then none", stagesOf(tr, ids[52]), stagesOf(tr, ids[53]))
	}
	if _, ok := tr.Lookup(1); ok {
		t.Fatal("the ring-sized commit left the request record resident")
	}
}

// TestRecordSpansEvictsOldestCreated: eviction takes whole records,
// oldest filed first, and a trace loses exactly the spans of its evicted
// records: a report whose request record went keeps its commit's spans,
// and an ID filed again after every record of it went starts afresh.
func TestRecordSpansEvictsOldestCreated(t *testing.T) {
	tr := NewTracer(nil, 1)                                   // 64 words
	tr.FileReports([]ReportSpans{{1, 1, 1, 1}, {2, 2, 1, 1}}) // 9 words
	tr.FileBatch(1, commitSpans, []TraceID{1, 2})             // 13
	tr.Record(3, StageProbe, at(0), 1)                        // 5
	six := make([]ReportSpans, 6)                             // 25: 52 words in all
	for i := range six {
		six[i] = ReportSpans{ID: TraceID(4 + i), Start: int64(i), Decode: 1, Observe: 1}
	}
	tr.FileReports(six)
	tr.FileBatch(4, commitSpans, []TraceID{4, 5}) // 13 more: the first request record goes
	commit := []string{StageQueue, StageWAL, StageStore}
	request := []string{StageDecode, StageObserve}
	for id, want := range map[TraceID][]string{
		1: commit, 2: commit, 3: {StageProbe}, 4: append(request, commit...), 6: request,
	} {
		if got := stagesOf(tr, id); !slices.Equal(got, want) {
			t.Errorf("trace %v stages = %v, want %v", id, got, want)
		}
	}
	tr.Record(1, StageProbe, at(9), 1)           // 61 words
	tr.FileReports([]ReportSpans{{10, 1, 1, 1}}) // 66: the first commit goes
	if got := stagesOf(tr, 1); !slices.Equal(got, []string{StageProbe}) || stagesOf(tr, 2) != nil {
		t.Errorf("after the commit's eviction trace 1 = %v, trace 2 = %v; want [probe] and nothing", got, stagesOf(tr, 2))
	}
	if got, want := tr.Recent(0), []TraceID{10, 1, 5, 4, 9, 8, 7, 6, 3}; !slices.Equal(got, want) {
		t.Errorf("recent = %v, want %v", got, want)
	}
}

// TestRecordSpansMatchesOneByOne is the batch records' property: a
// request record, or a commit record linking many distinct IDs, leaves
// every Lookup and Recent as the same spans filed one by one with Record.
func TestRecordSpansMatchesOneByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for round := 0; round < 50; round++ {
		one, batched := NewTracer(nil, 0), NewTracer(nil, 0)
		ids := 1 + rng.Intn(48)
		for step := 0; step < 20; step++ {
			if rng.Intn(2) == 0 {
				reports := make([]ReportSpans, rng.Intn(40))
				for i := range reports {
					r := ReportSpans{ID: TraceID(1 + rng.Intn(ids)), Start: rng.Int63n(1e18), Decode: time.Duration(rng.Intn(1e6)), Observe: time.Duration(rng.Intn(1e6))}
					if rng.Intn(8) == 0 {
						r.Observe = -1
					}
					reports[i] = r
					one.Record(r.ID, StageDecode, time.Unix(0, r.Start), r.Decode)
					if r.Observe >= 0 {
						one.Record(r.ID, StageObserve, time.Unix(0, r.Start).Add(r.Decode), r.Observe)
					}
				}
				batched.FileReports(reports)
				continue
			}
			links := make([]TraceID, 1+rng.Intn(ids))
			for i, k := range rng.Perm(ids)[:len(links)] {
				links[i] = TraceID(1 + k)
			}
			spans := slices.Clone(commitSpans[rng.Intn(3):])
			for i := range spans {
				spans[i].Start, spans[i].Duration = time.Unix(0, rng.Int63n(1e18)), time.Duration(rng.Intn(1e6))
			}
			for _, id := range links {
				for _, sp := range spans {
					one.Record(id, sp.Stage, sp.Start, sp.Duration)
				}
			}
			batched.FileBatch(links[0], spans, links)
		}
		for id := TraceID(0); id <= TraceID(ids); id++ {
			a, aok := one.Lookup(id)
			b, bok := batched.Lookup(id)
			if aok != bok || !spansEqual(a.Spans, b.Spans) {
				t.Fatalf("round %d id %v: one-by-one %v %+v, batched %v %+v", round, id, aok, a, bok, b)
			}
		}
		if a, b := one.Recent(0), batched.Recent(0); !slices.Equal(a, b) {
			t.Fatalf("round %d: recent one-by-one %v, batched %v", round, a, b)
		}
	}
}

// modelRec is one record of ringModel: a request record's entries, or a
// batch record's key, links and spans, with its size in words.
type modelRec struct {
	words   int
	reports []ReportSpans
	key     TraceID
	links   []TraceID
	spans   []Span
}

// lookup is the spans the record holds for id.
func (m modelRec) lookup(id TraceID) []Span {
	var out []Span
	for _, r := range m.reports {
		if r.ID == id {
			start := time.Unix(0, r.Start)
			out = append(out, Span{StageDecode, start, r.Decode})
			if r.Observe >= 0 {
				out = append(out, Span{StageObserve, start.Add(r.Decode), r.Observe})
			}
		}
	}
	if m.reports == nil && (m.key == id || slices.Contains(m.links, id)) {
		out = append(out, m.spans...)
	}
	return out
}

// ids is the record's trace IDs in filing order.
func (m modelRec) ids() []TraceID {
	if m.reports == nil {
		return append([]TraceID{m.key}, m.links...)
	}
	var out []TraceID
	for _, r := range m.reports {
		out = append(out, r.ID)
	}
	return out
}

// TestTracerRingMatchesModel runs random interleavings of Record,
// request filings and commit filings through rings of 64 and 128 words,
// many times round each, and after every filing holds Lookup of every ID
// and Recent to a slice of records that drops its oldest while their
// sizes sum past the ring. It must meet a report whose request entry is
// resident while a commit that linked it was evicted.
func TestTracerRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	randSpan := func() Span {
		return Span{knownStages[rng.Intn(len(knownStages))], time.Unix(0, rng.Int63n(1e18)), time.Duration(rng.Intn(1e6))}
	}
	orphans := 0
	for round := 0; round < 100; round++ {
		tr := NewTracer(nil, 1+rng.Intn(2))
		words, ids := len(tr.ring), 1+rng.Intn(24)
		id := func() TraceID { return TraceID(1 + rng.Intn(ids)) }
		var model []modelRec
		used, evictedLink := 0, map[TraceID]bool{}
		for step := 0; step < 200; step++ {
			var rec modelRec
			switch rng.Intn(3) {
			case 0:
				sp := randSpan()
				rec = modelRec{words: 5, key: id(), spans: []Span{sp}}
				tr.Record(rec.key, sp.Stage, sp.Start, sp.Duration)
			case 1:
				rec.reports = make([]ReportSpans, 1+rng.Intn((words-1)/4))
				for i := range rec.reports {
					rec.reports[i] = ReportSpans{id(), rng.Int63n(1e18), time.Duration(rng.Intn(1e6)), time.Duration(rng.Intn(1e6) - 1e5)}
				}
				rec.words = 1 + 4*len(rec.reports)
				tr.FileReports(rec.reports)
			default:
				rec.key = id()
				rec.spans = make([]Span, 1+rng.Intn(3))
				for i := range rec.spans {
					rec.spans[i] = randSpan()
				}
				rec.links = make([]TraceID, rng.Intn(words-2-3*len(rec.spans)+1))
				for i := range rec.links {
					rec.links[i] = id()
				}
				rec.words = 2 + 3*len(rec.spans) + len(rec.links)
				tr.FileBatch(rec.key, rec.spans, rec.links)
			}
			model, used = append(model, rec), used+rec.words
			for used > words {
				if model[0].reports == nil {
					for _, l := range model[0].ids() {
						evictedLink[l] = true
					}
				}
				model, used = model[1:], used-model[0].words
			}

			for id := TraceID(0); id <= TraceID(ids); id++ {
				var want []Span
				requestResident := false
				for _, r := range model {
					s := r.lookup(id)
					want = append(want, s...)
					requestResident = requestResident || r.reports != nil && len(s) > 0
				}
				got, ok := tr.Lookup(id)
				if ok != (len(want) > 0) || !spansEqual(got.Spans, want) {
					t.Fatalf("round %d step %d id %v: ring %v %+v, model %+v", round, step, id, ok, got.Spans, want)
				}
				if requestResident && evictedLink[id] {
					orphans++
				}
			}
			var recent []TraceID
			seen := map[TraceID]bool{}
			for k := len(model) - 1; k >= 0; k-- {
				ids := model[k].ids()
				for i := len(ids) - 1; i >= 0; i-- {
					if !seen[ids[i]] {
						seen[ids[i]] = true
						recent = append(recent, ids[i])
					}
				}
			}
			if got := tr.Recent(0); !slices.Equal(got, recent) {
				t.Fatalf("round %d step %d: recent %v, model %v", round, step, got, recent)
			}
			if n := 1 + rng.Intn(4); !slices.Equal(tr.Recent(n), recent[:min(n, len(recent))]) {
				t.Fatalf("round %d step %d: recent(%d) %v, model %v", round, step, n, tr.Recent(n), recent)
			}
		}
		if tr.head < 3*uint64(words) {
			t.Fatalf("round %d filed %d words, under three times round a %d-word ring", round, tr.head, words)
		}
	}
	if orphans == 0 {
		t.Fatal("no step met a request entry resident with a commit that linked it evicted")
	}
}
