package ingest

// Tests for BatchHandler's fold and its clock: a request's clean repeats
// become counts on their entry's row, and the handler loop reads the
// clock when a frame's decode read the body, not once per frame.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/telemetry"
)

// checkFoldContract checks a request's delivered measurements got (its
// batch expanded by Count, in row order) against per-report Observe's
// want, in report order. A folded clean repeat carries its entry's row's
// Time and Trace, so the two are equal as multisets once every clean
// measurement's Time and Trace are dropped (and every proxied one's Time,
// which the stamping clock decides); the proxied ones, each a row of its
// own, also keep their report order and Trace.
func checkFoldContract(t *testing.T, got, want []core.Measurement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d measurements, per-report Observe yields %d", len(got), len(want))
	}
	tally := make(map[core.Measurement]int)
	var gotTraces, wantTraces []uint64
	for _, side := range []struct {
		ms     []core.Measurement
		d      int
		traces *[]uint64
	}{{got, 1, &gotTraces}, {want, -1, &wantTraces}} {
		for _, m := range side.ms {
			m.Time = time.Time{}
			if m.Obs.Proxied {
				*side.traces = append(*side.traces, m.Trace)
			} else {
				m.Trace = 0
			}
			tally[m] += side.d
		}
	}
	for m, d := range tally {
		if d != 0 {
			t.Fatalf("delivered %+d of %s (%s, proxied %v) against per-report Observe", d, m.Host, m.Obs.IssuerCN, m.Obs.Proxied)
		}
	}
	if !slices.Equal(gotTraces, wantTraces) {
		t.Fatalf("proxied rows carry traces %v, want %v (one row per report, in order)", gotTraces, wantTraces)
	}
}

// foldRecorder is a core.BatchCommitter that records each delivered
// batch (expanded by Count, its proxied rows, and the traces its rows and
// folds carry) before passing it to a Pipeline.
type foldRecorder struct {
	next    *Pipeline
	got     []core.Measurement
	proxied []core.Row
	traces  []uint64
}

func (f *foldRecorder) Ingest(core.Measurement) {
	panic("batch intake must commit through Deliver")
}

func (f *foldRecorder) Deliver(b *core.Batch) error {
	for i, r := range b.Rows {
		m := b.Measurement(i)
		for range r.Count {
			f.got = append(f.got, m)
		}
		if m.Obs.Proxied {
			f.proxied = append(f.proxied, r)
		}
		if r.Trace != 0 {
			f.traces = append(f.traces, r.Trace)
		}
	}
	for _, fd := range b.Folds {
		f.traces = append(f.traces, fd.Trace)
	}
	return f.next.Deliver(b)
}

// TestBatchHandlerFoldProperty posts 240 seeded random requests through
// BatchHandler into a durable two-shard Pipeline. The requests mix
// repeats of clean and forged chains, unknown hosts, unparsable chains,
// and traced and untraced reports. Each must deliver what per-report
// Observe yields (checkFoldContract), its proxied rows of count 1 each
// stamped on its own, its Accepted and Rejected the per-report outcome
// counts, every traced accepted report's trace once on a row or a fold,
// and every such trace the five reportd stages.
func TestBatchHandlerFoldProperty(t *testing.T) {
	const hostA, hostB, hostC = "a.fold.example", "b.fold.example", "c.fold.example"
	chainA, chainB, chainC := testChain(t, hostA), testChain(t, hostB), testChain(t, hostC)
	pool := []Report{
		{Host: hostA, ChainDER: chainA}, {Host: hostB, ChainDER: chainB}, {Host: hostC, ChainDER: chainC},
		{Host: hostA, ChainDER: chainB}, {Host: hostB, ChainDER: chainC}, // not the host's chain: proxied
		{Host: hostC, ChainDER: [][]byte{{0x30, 0x03, 0x01, 0x02, 0x03}}}, // unparsable
		{Host: "unknown.fold.example", ChainDER: chainA},
	}
	newCollector := func(sink core.Sink, tracer *telemetry.Tracer) *core.Collector {
		col := core.NewCollector(classify.NewClassifier(), nil, sink)
		step := time.Date(2014, time.July, 1, 12, 0, 0, 0, time.UTC)
		col.Clock = func() time.Time { step = step.Add(time.Millisecond); return step }
		col.Campaign = "fold"
		col.Cache = core.NewObservationCache(0, 0)
		col.Tracer = tracer
		for _, r := range pool[:3] {
			col.SetAuthoritative(r.Host, r.ChainDER)
		}
		return col
	}
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)
	pl, _, err := OpenPipeline(Config{Shards: 2, WALDir: t.TempDir(), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	rec := &foldRecorder{next: pl}
	h := BatchHandler(newCollector(rec, tracer))
	ctl := newCollector(core.SinkFunc(func(core.Measurement) {}), nil)

	rng := rand.New(rand.NewPCG(55, 2014))
	nextID := uint64(1)
	stages := []string{telemetry.StageDecode, telemetry.StageObserve, telemetry.StageQueue, telemetry.StageWAL, telemetry.StageStore}
	for stream := range 240 {
		// A few entries per stream, two in three of them clean, so
		// repeats abound.
		entries := make([]Report, 1+rng.IntN(4))
		for i := range entries {
			if entries[i] = pool[rng.IntN(len(pool))]; rng.IntN(3) > 0 {
				entries[i] = pool[rng.IntN(3)]
			}
		}
		reports := make([]Report, 1+rng.IntN(48))
		for i := range reports {
			reports[i] = entries[rng.IntN(len(entries))]
			if rng.IntN(3) > 0 {
				reports[i].Trace, nextID = nextID, nextID+1
			}
		}
		body, err := AppendReports(nil, reports)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body))
		resp := httptest.NewRecorder()
		rec.got, rec.proxied, rec.traces = nil, nil, nil
		h.ServeHTTP(resp, req)
		var res BatchResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.Code != http.StatusOK {
			t.Fatalf("stream %d: status %d, decode err %v", stream, resp.Code, err)
		}

		ip := core.ClientIPFromRequest(req)
		var want []core.Measurement
		var traced []uint64
		rejected := 0
		for _, r := range reports {
			m, err := ctl.Observe(ip, r.Host, r.ChainDER, ctl.Campaign, r.Trace)
			if err != nil {
				rejected++
				continue
			}
			want = append(want, m)
			if r.Trace != 0 {
				traced = append(traced, r.Trace)
			}
		}
		if res.Accepted != len(want) || res.Rejected != rejected {
			t.Fatalf("stream %d: verdict %+v, want %d accepted, %d rejected", stream, res, len(want), rejected)
		}
		if len(want) == 0 {
			continue
		}
		checkFoldContract(t, rec.got, want)
		for i, r := range rec.proxied {
			if r.Count != 1 || i > 0 && r.Time <= rec.proxied[i-1].Time {
				t.Fatalf("stream %d: proxied row %d of %v has count %d or a stamp not its own", stream, i, rec.proxied, r.Count)
			}
		}
		slices.Sort(traced)
		slices.Sort(rec.traces)
		if !slices.Equal(rec.traces, traced) {
			t.Fatalf("stream %d: rows and folds carry traces %v, want the traced accepted reports' %v", stream, rec.traces, traced)
		}
		for _, id := range traced {
			tr, _ := tracer.Lookup(telemetry.TraceID(id))
			for _, st := range stages {
				if !slices.ContainsFunc(tr.Spans, func(sp telemetry.Span) bool { return sp.Stage == st }) {
					t.Fatalf("stream %d: trace %d has no %s span: %+v", stream, id, st, tr.Spans)
				}
			}
		}
	}
}

// chunkReader hands out its chunks, one Read at most each.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestBatchHandlerClockPerBodyRead posts one traced body through a reader
// that hands it out in k chunks, each smaller than the decoder's read
// buffer, so k reads carry it. The request's spans must tile its handler
// loop, each report's decode starting where the previous report's
// observe ended, and none may be negative; only a decode that read the
// body or followed an observed entry may take time, so at most k +
// entries observed decode spans are non-zero; and the decode and observe
// histograms still count once per report.
func TestBatchHandlerClockPerBodyRead(t *testing.T) {
	hosts := []string{"a.clock.example", "b.clock.example", "c.clock.example"}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	p := NewPipeline(Config{Shards: 2, Tracer: tracer})
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	col.Cache = core.NewObservationCache(0, 0)
	col.Tracer = tracer
	var entries []Report
	for _, h := range hosts {
		chain := testChain(t, h)
		col.SetAuthoritative(h, chain)
		entries = append(entries, Report{Host: h, ChainDER: chain})
	}
	entries = append(entries, Report{Host: hosts[0], ChainDER: entries[1].ChainDER}) // proxied
	reports := make([]Report, 300)
	for i := range reports {
		reports[i] = entries[(i*i+i/7)%len(entries)]
		reports[i].Trace = uint64(1000 + i)
	}
	body, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1000 // under bufio's 4096-byte reads
	var chunks [][]byte
	for rest := body; len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
		chunks = append(chunks, rest[:min(chunk, len(rest))])
	}
	k := len(chunks)
	resp := httptest.NewRecorder()
	BatchHandler(col).ServeHTTP(resp, httptest.NewRequest(http.MethodPost, "/ingest/batch", &chunkReader{chunks: chunks}))
	if resp.Code != http.StatusOK {
		t.Fatalf("status %d: %s", resp.Code, resp.Body)
	}

	var prevEnd time.Time
	nonzero := 0
	for i, r := range reports {
		tr, ok := tracer.Lookup(telemetry.TraceID(r.Trace))
		if !ok || len(tr.Spans) < 2 || tr.Spans[0].Stage != telemetry.StageDecode || tr.Spans[1].Stage != telemetry.StageObserve {
			t.Fatalf("report %d: spans %+v, want decode then observe first", i, tr.Spans)
		}
		dec, obs := tr.Spans[0], tr.Spans[1]
		if dec.Duration < 0 || obs.Duration < 0 {
			t.Fatalf("report %d: decode %v, observe %v; a span is negative", i, dec.Duration, obs.Duration)
		}
		if i > 0 && !dec.Start.Equal(prevEnd) {
			t.Fatalf("report %d: decode starts at %v, the previous observe ended at %v", i, dec.Start, prevEnd)
		}
		if dec.Duration > 0 {
			nonzero++
		}
		prevEnd = obs.Start.Add(obs.Duration)
	}
	if limit := k + len(entries); nonzero > limit {
		t.Errorf("%d non-zero decode spans over %d reads of the body and %d entries", nonzero, k, len(entries))
	}
	for _, stage := range []string{telemetry.StageDecode, telemetry.StageObserve} {
		if n := reg.Histogram(telemetry.StageMetric(stage), "").Snapshot().Count; n != uint64(len(reports)) {
			t.Errorf("%s counted %d times, want once per report (%d)", telemetry.StageMetric(stage), n, len(reports))
		}
	}
	t.Logf("%d reports, %d bytes in %d chunks: %d non-zero decode spans", len(reports), len(body), k, nonzero)
}
