package ingest

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/telemetry"
)

// overheadRounds is the best-of count on each side of the traced arm of
// TestMetricsOverheadSmoke; the best round shaves scheduler noise.
const overheadRounds = 5

// TestMetricsOverheadSmoke pins the cost of mounting the telemetry plane
// on the ingest hot path, in two arms, each timed with and without a
// Tracer:
//
//   - untraced: the same batched workload through an uninstrumented
//     pipeline and one with a Tracer mounted (the reportd default for an
//     untraced fleet — every measurement carries trace 0, so the tracer
//     adds clock reads and histogram observes per batch but no span
//     work). Two gates: structurally, in every test run, the mounted
//     tracer observes its stages but files no span and takes no tracer
//     lock (trace_span_filings_total stays 0); and in time, the median
//     ratio over untracedPairs interleaved pairs of short blocks fails
//     past 5%.
//   - traced: reportd's intake — BatchHandler, Collector, Pipeline —
//     driven from 2 goroutines with every report carrying a fresh trace
//     ID, as a probe fleet sends them by default. Every report then
//     traces through four spans in two records: its entry (ingest_decode,
//     observe) in its request's one record, and its link to its shard
//     commit's one record (shard_queue, store_merge; the pipeline is
//     memory-only, so there is no wal_append). Fails past
//     tracedOverheadBound.
//
// Wall-clock comparisons are inherently jittery on shared CI runners, so
// the timed arms only run when METRICS_OVERHEAD_SMOKE is set (the CI
// workflow sets it in a dedicated step); locally: METRICS_OVERHEAD_SMOKE=1
// go test -run TestMetricsOverheadSmoke ./internal/ingest/
func TestMetricsOverheadSmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	untracedRatios(telemetry.NewTracer(reg, 0), 3)
	counts := make(map[string]uint64)
	for _, m := range reg.Snapshot() {
		counts[m.Name] = uint64(m.Value) + m.Hist.Count
	}
	if counts[telemetry.StageMetric(telemetry.StageQueue)] == 0 {
		t.Fatalf("the mounted tracer observed no stage: %v", counts)
	}
	if n := counts["trace_span_filings_total"]; n != 0 {
		t.Fatalf("untraced batches took the tracer lock %d times", n)
	}

	if os.Getenv("METRICS_OVERHEAD_SMOKE") == "" {
		t.Skip("set METRICS_OVERHEAD_SMOKE=1 to run the timing comparison")
	}
	ratios := untracedRatios(telemetry.NewTracer(telemetry.NewRegistry(), 0), untracedPairs)
	slices.Sort(ratios)
	untraced := ratios[len(ratios)/2]
	t.Logf("untraced arm: tracer mounted / bare, median of %d block pairs %.3f (quartiles %.3f–%.3f)",
		len(ratios), untraced, ratios[len(ratios)/4], ratios[3*len(ratios)/4])

	// The traced arm alternates its sides round by round, so a slow
	// stretch of the host lands on both.
	chain := testChain(t, "overhead.example")
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)
	never := time.Duration(1<<63 - 1)
	bareIntake, tracedIntake := never, never
	for r := 0; r < overheadRounds; r++ {
		bareIntake = min(bareIntake, tracedRound(t, chain, nil, 0))
		tracedIntake = min(tracedIntake, tracedRound(t, chain, tracer, uint64(r)<<32|1))
	}
	ratio := float64(tracedIntake) / float64(bareIntake)
	t.Logf("traced arm: bare %v, every report traced %v (ratio %.3f)", bareIntake, tracedIntake, ratio)

	if untraced > 1.05 {
		t.Errorf("untraced telemetry overhead exceeds 5%%: median ratio %.3f", untraced)
	}
	if ratio > tracedOverheadBound {
		t.Errorf("traced telemetry overhead exceeds %.2fx: ratio %.3f", tracedOverheadBound, ratio)
	}
}

// tracedOverheadBound gates the traced arm's ratio. On a 2-core host the
// arm read 2.37–3.33 with every span taking the tracer lock on its own,
// 1.41–2.96 with spans filed per request and per shard commit but copied
// per report per stage, and 0.89–1.54 in twenty runs with one trace
// record per request and one per commit (EXPERIMENTS.md, "Trace spans
// per batch" and "One trace record per batch"). Folding a request's clean
// repeats into counts halved the bare side but not tracing's per-report
// work; with the handler's clock read per body read as well, five runs
// read 1.55–1.93 (median 1.72) against the parent's 1.19–1.59, the
// traced side 1.6–2.1 ms against 3.1–4.1 ms. Linking a shard's folds by
// ID (no tuple lookup, no second copy) and writing ring words through
// locals brought fifteen runs to 1.32–1.68 (median 1.56), the parent's
// fifteen beside them 1.10–1.60 (median 1.30) (EXPERIMENTS.md, "Clean
// repeats as counts").
const tracedOverheadBound = 2.0

// untracedPairs is how many (bare, tracer mounted) block pairs the timed
// untraced arm compares. Each block is untracedBlock 256-measurement
// batches, about 0.3 ms on a 2-core host: the two blocks of a pair run
// back to back over identical pipeline states, so host noise slower than
// a millisecond lands on both, and the median drops the pairs a
// preemption hit.
const (
	untracedPairs = 401
	untracedBlock = 8
)

// untracedRatios feeds untraced 256-measurement batches to two 2-shard
// pipelines, one bare and one with tracer mounted, in alternating blocks,
// and returns each pair's mounted/bare time ratio. The pair order flips
// every pair.
func untracedRatios(tracer *telemetry.Tracer, pairs int) []float64 {
	batch := make([]core.Measurement, 256)
	for i := range batch {
		batch[i] = core.Measurement{
			Host: fmt.Sprintf("host-%d.example", i%8),
			Obs:  core.Observation{Proxied: i%16 == 0},
		}
	}
	bare, mounted := NewPipeline(Config{Shards: 2}), NewPipeline(Config{Shards: 2, Tracer: tracer})
	defer bare.Close()
	defer mounted.Close()
	block := func(p *Pipeline) float64 {
		start := time.Now()
		for b := 0; b < untracedBlock; b++ {
			p.IngestBatch(batch)
		}
		return float64(time.Since(start))
	}
	runtime.GC()
	ratios := make([]float64, pairs)
	for r := range ratios {
		if r%2 == 0 {
			b := block(bare)
			ratios[r] = block(mounted) / b
		} else {
			m := block(mounted)
			ratios[r] = m / block(bare)
		}
	}
	return ratios
}

// tracedRound times 2 goroutines each handing BatchHandler 40
// 256-report wire bodies (8 hosts, one chain) over a 4-shard pipeline.
// With a tracer, report k carries trace firstID+k: IDs no earlier round
// used, so each report creates its trace as in a live fleet.
func tracedRound(t *testing.T, chain [][]byte, tracer *telemetry.Tracer, firstID uint64) time.Duration {
	t.Helper()
	const (
		posters = 2
		bodies  = 40
		perBody = 256
	)
	p := NewPipeline(Config{Shards: 4, Tracer: tracer})
	defer p.Close()
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	col.Cache = core.NewObservationCache(0, 0)
	col.Tracer = tracer
	reports := make([]Report, perBody)
	for i := range reports {
		host := fmt.Sprintf("host-%d.example", i%8)
		col.SetAuthoritative(host, chain)
		reports[i] = Report{Host: host, ChainDER: chain}
	}
	work := make([][][]byte, posters)
	next := firstID
	for w := range work {
		for b := 0; b < bodies; b++ {
			for i := range reports {
				if tracer != nil {
					reports[i].Trace = next
					next++
				}
			}
			body, err := AppendReports(nil, reports)
			if err != nil {
				t.Fatal(err)
			}
			work[w] = append(work[w], body)
		}
	}
	h := BatchHandler(col)
	post := func(body []byte) bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Code == http.StatusOK
	}
	// Warm the observation cache outside the timed part.
	post(work[0][0])

	var wg sync.WaitGroup
	runtime.GC() // collect the bodies' build garbage before timing
	start := time.Now()
	for _, bodies := range work {
		wg.Add(1)
		go func(bodies [][]byte) {
			defer wg.Done()
			for _, body := range bodies {
				if !post(body) {
					return
				}
			}
		}(bodies)
	}
	wg.Wait()
	return time.Since(start)
}
