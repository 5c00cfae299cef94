package ingest

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/telemetry"
)

// TestTracedBatchStageOrder drives traced batches from concurrent
// posters through reportd's intake — BatchHandler, Collector, a durable
// Pipeline — and checks what the tracer holds afterwards: every trace has
// exactly the five reportd stages, in path order, and the stage
// histograms count what they always counted (decode and observe once per
// report, queue, wal and store once per shard commit).
func TestTracedBatchStageOrder(t *testing.T) {
	const (
		posters  = 4
		batches  = 4
		perBatch = 50
		shards   = 3
	)
	hosts := []string{"a.example", "b.example", "c.example", "d.example", "e.example"}
	chain := testChain(t, hosts[0])

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	p, _, err := OpenPipeline(Config{Shards: shards, Tracer: tracer, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	col.Tracer = tracer
	for _, h := range hosts {
		col.SetAuthoritative(h, chain)
	}
	srv := httptest.NewServer(BatchHandler(col))
	defer srv.Close()

	commits := 0 // one per (request, shard it touches)
	var ids []telemetry.TraceID
	bodies := make([][][]byte, posters)
	for w := range bodies {
		for b := 0; b < batches; b++ {
			reports := make([]Report, perBatch)
			touched := make(map[int]bool)
			for i := range reports {
				id := telemetry.TraceID(w<<32 | b<<16 | i + 1)
				host := hosts[(w+b+i)%len(hosts)]
				reports[i] = Report{Host: host, ChainDER: chain, Trace: uint64(id)}
				ids = append(ids, id)
				touched[durable.ShardOf(host, shards)] = true
			}
			commits += len(touched)
			body, err := AppendReports(nil, reports)
			if err != nil {
				t.Fatal(err)
			}
			bodies[w] = append(bodies[w], body)
		}
	}

	var wg sync.WaitGroup
	for w := range bodies {
		wg.Add(1)
		go func(bodies [][]byte) {
			defer wg.Done()
			for _, body := range bodies {
				res, status, err := PostBatch(http.DefaultClient, srv.URL, body)
				if err != nil || status != http.StatusOK || res.Accepted != perBatch {
					t.Errorf("post: status %d, verdict %+v, err %v", status, res, err)
					return
				}
			}
		}(bodies[w])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := []string{telemetry.StageDecode, telemetry.StageObserve, telemetry.StageQueue, telemetry.StageWAL, telemetry.StageStore}
	for _, id := range ids {
		tr, ok := tracer.Lookup(id)
		if !ok {
			t.Fatalf("trace %v not resident", id)
		}
		got := make([]string, len(tr.Spans))
		for i, sp := range tr.Spans {
			got[i] = sp.Stage
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %v stages = %v, want %v", id, got, want)
		}
	}

	reports := posters * batches * perBatch
	for stage, n := range map[string]int{
		telemetry.StageDecode: reports, telemetry.StageObserve: reports,
		telemetry.StageQueue: commits, telemetry.StageWAL: commits, telemetry.StageStore: commits,
	} {
		if got := reg.Histogram(telemetry.StageMetric(stage), "").Snapshot().Count; got != uint64(n) {
			t.Errorf("%s count = %d, want %d", telemetry.StageMetric(stage), got, n)
		}
	}
	if got := p.Stats().Ingested; got != uint64(reports) {
		t.Fatalf("ingested %d, want %d", got, reports)
	}
}
