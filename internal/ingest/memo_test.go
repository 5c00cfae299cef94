package ingest

// Tests for the wire entry table and BatchHandler's per-request memo: a
// request whose reports repeat entries must deliver what observing every
// report alone delivers, its clean repeats folded into counts, cost no
// more allocations as the repeats grow, and keep both tables bounded on
// hostile streams.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/raceflag"
	"tlsfof/internal/telemetry"
)

// TestBatchHandlerMatchesPerReportObserve: one request mixing repeated
// entries, a forged chain, an unparsable chain and an unknown host, each
// repeating, delivers the measurements per-report Collector.IngestTraced
// yields under the fold contract (checkFoldContract), rejects as many
// reports, and files the same observe spans for every traced report.
func TestBatchHandlerMatchesPerReportObserve(t *testing.T) {
	const hostA, hostB = "a.memo.example", "b.memo.example"
	chainA, chainB := testChain(t, hostA), testChain(t, hostB)
	// Not the chain hostA serves. testChain is seeded: a second
	// testChain(t, hostA) would be chainA, byte for byte.
	forged := chainB
	garbage := [][]byte{{0x30, 0x03, 0x01, 0x02, 0x03}}
	clock := time.Date(2014, 7, 1, 12, 0, 0, 0, time.UTC)

	newCollector := func(sink core.Sink, reg *telemetry.Registry) (*core.Collector, *telemetry.Tracer) {
		col := core.NewCollector(classify.NewClassifier(), nil, sink)
		col.Clock = func() time.Time { return clock }
		col.Campaign = "memo"
		col.Cache = core.NewObservationCache(0, 0)
		col.Tracer = telemetry.NewTracer(reg, 0)
		col.SetAuthoritative(hostA, chainA)
		col.SetAuthoritative(hostB, chainB)
		return col, col.Tracer
	}

	var reports []Report
	for i, r := range []Report{
		{Host: hostA, ChainDER: chainA}, {Host: hostB, ChainDER: chainB},
		{Host: hostA, ChainDER: chainA}, {Host: "unknown.example", ChainDER: chainA},
		{Host: hostA, ChainDER: forged}, {Host: hostB, ChainDER: garbage},
		{Host: hostA, ChainDER: chainA}, {Host: "unknown.example", ChainDER: chainA},
		{Host: hostA, ChainDER: forged}, {Host: hostB, ChainDER: garbage},
		{Host: hostB, ChainDER: chainB}, {Host: hostA, ChainDER: chainA},
	} {
		if i%5 != 4 { // every fifth report untraced
			r.Trace = uint64(100 + i)
		}
		reports = append(reports, r)
	}
	body, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}

	var got []core.Measurement
	col, tracer := newCollector(core.SinkFunc(func(m core.Measurement) { got = append(got, m) }), telemetry.NewRegistry())
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body))
	BatchHandler(col).ServeHTTP(rec, req)
	var res BatchResult
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status %d, decode err %v", rec.Code, err)
	}

	ctl, ctlTracer := newCollector(core.SinkFunc(func(core.Measurement) {}), telemetry.NewRegistry())
	ip := core.ClientIPFromRequest(req)
	var want []core.Measurement
	rejected := 0
	for _, r := range reports {
		m, err := ctl.IngestTraced(ip, r.Host, r.ChainDER, ctl.Campaign, r.Trace)
		if err != nil {
			rejected++
			continue
		}
		want = append(want, m)
	}
	proxied := 0
	for _, m := range want {
		if m.Obs.Proxied {
			proxied++
		}
	}
	if rejected != 4 || len(want) != 8 || proxied != 2 {
		t.Fatalf("control rejected %d and accepted %d, %d proxied; the request does not mix what it should", rejected, len(want), proxied)
	}
	if res.Accepted != len(want) || res.Rejected != rejected {
		t.Fatalf("verdict %+v, want %d accepted, %d rejected", res, len(want), rejected)
	}
	checkFoldContract(t, got, want)

	observes := func(tr *telemetry.Tracer, id uint64) int {
		n := 0
		if trace, ok := tr.Lookup(telemetry.TraceID(id)); ok {
			for _, sp := range trace.Spans {
				if sp.Stage == telemetry.StageObserve {
					n++
				}
			}
		}
		return n
	}
	for _, r := range reports {
		if r.Trace == 0 {
			continue
		}
		if g, w := observes(tracer, r.Trace), observes(ctlTracer, r.Trace); g != w {
			t.Errorf("trace %d (%s): %d observe spans, per-report Observe files %d", r.Trace, r.Host, g, w)
		}
		if r.Host != "unknown.example" && observes(tracer, r.Trace) != 1 {
			t.Errorf("trace %d (%s) has no observe span", r.Trace, r.Host)
		}
	}
}

// TestBatchHandlerRepeatAllocs pins the memo's cost: on a warm handler a
// request's allocations do not grow with how many reports repeat an
// entry.
func TestBatchHandlerRepeatAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const host = "allocs.memo.example"
	chain := testChain(t, host)
	col := core.NewCollector(classify.NewClassifier(), nil, core.SinkFunc(func(core.Measurement) {}))
	col.Cache = core.NewObservationCache(0, 0)
	col.SetAuthoritative(host, chain)
	h := BatchHandler(col)
	allocs := func(repeats int) float64 {
		reports := make([]Report, 1+repeats)
		for i := range reports {
			reports[i] = Report{Host: host, ChainDER: chain, Trace: uint64(i)}
		}
		body, err := AppendReports(nil, reports)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's own first call warms the pooled state.
		return testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
		})
	}
	few, many := allocs(8), allocs(2048)
	if many > few {
		t.Fatalf("a request with 2048 repeats allocates %.1f, with 8 repeats %.1f: the memo allocates per report", many, few)
	}
}

// TestBatchHandlerFoldedRepeatAllocs pins the fold's cost with a tracer
// and a pipeline mounted: a traced clean repeat is a count and a fold,
// linked from its shard commit's trace record, and a warm handler's
// request allocates no more for 2048 of them than for 8.
func TestBatchHandlerFoldedRepeatAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const host = "folds.memo.example"
	chain := testChain(t, host)
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)
	p := NewPipeline(Config{Shards: 2, Tracer: tracer})
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	col.Cache = core.NewObservationCache(0, 0)
	col.Tracer = tracer
	col.SetAuthoritative(host, chain)
	h := BatchHandler(col)
	allocs := func(repeats int) float64 {
		reports := make([]Report, 1+repeats)
		for i := range reports {
			reports[i] = Report{Host: host, ChainDER: chain, Trace: uint64(1 + i)}
		}
		body, err := AppendReports(nil, reports)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
		})
	}
	few, many := allocs(8), allocs(2048)
	if many > few {
		t.Fatalf("a request with 2048 traced folded repeats allocates %.1f, with 8 %.1f: a fold allocates", many, few)
	}
	// Every run re-posts the same IDs: the last request's four spans end
	// the trace.
	tr, _ := tracer.Lookup(2049)
	var last []string
	for _, sp := range tr.Spans[max(0, len(tr.Spans)-4):] {
		last = append(last, sp.Stage)
	}
	if want := []string{telemetry.StageDecode, telemetry.StageObserve, telemetry.StageQueue, telemetry.StageStore}; !reflect.DeepEqual(last, want) {
		t.Fatalf("the last folded repeat's trace ends in %v, want %v", last, want)
	}
}

// TestBatchHandlerReportBound: maxBatchReports reports, all but the first
// two-byte references, are accepted; one report more answers 413 and
// applies nothing. A state that held a request past MaxWireEntries reports goes
// back to the pool without its row and span buffers.
func TestBatchHandlerReportBound(t *testing.T) {
	const host = "bound.memo.example"
	chain := testChain(t, host)
	ingested := 0
	col := core.NewCollector(classify.NewClassifier(), nil, core.SinkFunc(func(core.Measurement) { ingested++ }))
	col.SetAuthoritative(host, chain)
	h := BatchHandler(col)
	reports := make([]Report, maxBatchReports+1)
	for i := range reports {
		reports[i] = Report{Host: host, ChainDER: chain}
	}
	post := func(rs []Report) (int, BatchResult) {
		body, err := AppendReports(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body)))
		var res BatchResult
		if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return rec.Code, res
	}

	if status, res := post(reports); status != http.StatusRequestEntityTooLarge || res.Accepted != 0 || res.Error == "" || ingested != 0 {
		t.Fatalf("%d reports: status %d, verdict %+v, sink saw %d; want 413 and nothing applied", len(reports), status, res, ingested)
	}
	if status, res := post(reports[:maxBatchReports]); status != http.StatusOK || res.Accepted != maxBatchReports || ingested != maxBatchReports {
		t.Fatalf("%d reports: status %d, verdict %+v, sink saw %d; want all accepted", maxBatchReports, status, res, ingested)
	}

	// Each of the three per-report slices past the bound drops the state.
	for name, grow := range map[string]func(*decodeState){
		"rows":   func(st *decodeState) { st.batch.Rows = make([]core.Row, MaxWireEntries+1) },
		"folds":  func(st *decodeState) { st.batch.Folds = make([]core.Fold, MaxWireEntries+1) },
		"traced": func(st *decodeState) { st.traced = make([]telemetry.ReportSpans, MaxWireEntries+1) },
	} {
		st := &decodeState{arena: NewArena()}
		grow(st)
		st.dec = NewArenaDecoder(nil, st.arena)
		st.put()
		if st.batch.Rows != nil || st.batch.Folds != nil || st.traced != nil {
			t.Fatalf("pooled state kept its %s' capacity past the %d bound", name, MaxWireEntries)
		}
	}
}

// TestWireEntryTableBound: a stream with more distinct (host, chain)
// pairs than MaxWireEntries still round-trips — pairs past the bound
// travel inline every time — and neither the decoder's table nor the
// handler's memo grows past the bound.
func TestWireEntryTableBound(t *testing.T) {
	const distinct = MaxWireEntries + 100
	reports := make([]Report, 0, distinct+4)
	for i := 0; i < distinct; i++ {
		reports = append(reports, Report{Host: fmt.Sprintf("h%d.example", i), ChainDER: [][]byte{{byte(i), byte(i >> 8)}}})
	}
	// Repeats of an entered pair and of one past the bound.
	reports = append(reports, reports[0], reports[distinct-1], reports[1], reports[distinct-1])
	stream, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewArenaDecoder(bytes.NewReader(stream), nil)
	got, err, capped := decodeUpTo(dec, 2*len(reports))
	if capped || !errors.Is(err, io.EOF) {
		t.Fatalf("decode ended with %v after %d reports", err, len(got))
	}
	if len(got) != len(reports) {
		t.Fatalf("decoded %d reports, want %d", len(got), len(reports))
	}
	for i := range got {
		if got[i].Host != reports[i].Host || !reflect.DeepEqual(got[i].ChainDER, reports[i].ChainDER) {
			t.Fatalf("report %d drifted", i)
		}
	}
	if len(dec.entries) != MaxWireEntries {
		t.Fatalf("decoder table holds %d entries, want the bound %d", len(dec.entries), MaxWireEntries)
	}

	col := core.NewCollector(classify.NewClassifier(), nil, core.SinkFunc(func(core.Measurement) {}))
	st := decodePool.Get().(*decodeState)
	st.dec.Reset(bytes.NewReader(stream))
	defer st.put()
	rejected := 0
	for {
		rep, err := st.dec.Next()
		if err != nil {
			break
		}
		if _, err := st.observe(col, 0, rep); err != nil {
			rejected++
		}
	}
	if rejected != len(reports) || len(st.memo) != MaxWireEntries {
		t.Fatalf("rejected %d of %d unknown-host reports, memo holds %d (bound %d)", rejected, len(reports), len(st.memo), MaxWireEntries)
	}
}
