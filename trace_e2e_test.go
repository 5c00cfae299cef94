package tlsfof

// TestTraceEndToEnd is the acceptance test for the unified telemetry
// plane: one fixed-seed probe carries its trace ID through the
// ClientHello session id into the interceptor, through the TFW2 batch
// wire into reportd's decode/observe path, across the shard queue and
// write-ahead log, and into the store merge — and is then followed by
// that single ID through the trace endpoint and both /metrics
// exposition formats.

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/ingest"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
)

func TestTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trace e2e skipped in -short mode")
	}
	host := "tlsresearch.byu.edu"
	world := newLWWorld(t, []string{host})

	// One registry + tracer plays both the mitmd and reportd roles
	// (colocated deployment); the stages each process records are
	// disjoint, so the shared ring tells the same story two processes
	// would, minus a network hop.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)

	upstreamLn := world.serveUpstreamTCP(t)
	engines := lwEngines(t, world, lwProfiles(t)[:1]) // Bitdefender: intercepts
	ic := proxyengine.NewInterceptor(engines[0], func(string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	ic.Tracer = tracer
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxyLn.Close() })
	go ic.Serve(proxyLn, nil)

	// Durable pipeline so the wal_append stage is on the path.
	pipeline, _, err := ingest.OpenPipeline(ingest.Config{
		Shards: 2, Block: true, Tracer: tracer, WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipeline.Close()
	col := world.newCollector(pipeline, "trace-e2e")
	col.Tracer = tracer
	mux := http.NewServeMux()
	mux.Handle("/ingest/batch", ingest.BatchHandler(col))
	mux.Handle("/metrics", telemetry.Handler(reg))
	mux.Handle("/trace", tracer.Handler())
	reportd := httptest.NewServer(mux)
	defer reportd.Close()

	// The exact ID cmd/tlsproxy-probe derives for -trace-seed=42,
	// worker 0, probe 1: seed<<40 | worker<<24 | probe. Deterministic,
	// so an operator can compute it offline and query /trace for it.
	const traceID = telemetry.TraceID(42<<40 | 0<<24 | 1)

	probeStart := time.Now()
	res, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
		ServerName: host,
		SessionID:  telemetry.AppendTraceSessionID(nil, traceID),
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Record(traceID, telemetry.StageProbe, probeStart, res.HandshakeTime)

	client := ingest.NewClient(reportd.URL + "/ingest/batch")
	if err := client.Report(ingest.Report{Host: host, ChainDER: res.ChainDER, Trace: uint64(traceID)}); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	pipeline.Drain()

	// — The trace ring holds every hop under the one fixed ID. —
	wantStages := []string{
		telemetry.StageProbe, telemetry.StageMitmSniff, telemetry.StageMitmUpstrm,
		telemetry.StageMitmForge, telemetry.StageMitmRespond, telemetry.StageDecode,
		telemetry.StageObserve, telemetry.StageQueue, telemetry.StageWAL,
		telemetry.StageStore,
	}
	// The interceptor records mitm_respond on its own goroutine once its
	// responder returns, which can be after the probe has its chain and
	// the report has already been stored: wait for that span to land.
	hasStage := func(tr telemetry.Trace, stage string) bool {
		for _, sp := range tr.Spans {
			if sp.Stage == stage {
				return true
			}
		}
		return false
	}
	tr, ok := tracer.Lookup(traceID)
	for deadline := time.Now().Add(5 * time.Second); ok && !hasStage(tr, telemetry.StageMitmRespond) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		tr, ok = tracer.Lookup(traceID)
	}
	if !ok {
		t.Fatalf("trace %s not resident after end-to-end run", traceID)
	}
	got := map[string]bool{}
	for _, sp := range tr.Spans {
		got[sp.Stage] = true
		if sp.Duration < 0 {
			t.Errorf("stage %s has negative duration %v", sp.Stage, sp.Duration)
		}
		if sp.Start.IsZero() {
			t.Errorf("stage %s has zero start time", sp.Stage)
		}
	}
	for _, st := range wantStages {
		if !got[st] {
			t.Errorf("trace %s missing stage %s (have %v)", traceID, st, tr.Spans)
		}
	}

	// — The trace endpoint serves the same spans by ID. —
	var traceDoc struct {
		Spans []struct {
			Stage string `json:"stage"`
		} `json:"spans"`
	}
	getJSON(t, reportd.URL+"/trace?id="+traceID.String(), &traceDoc)
	if len(traceDoc.Spans) != len(tr.Spans) {
		t.Errorf("/trace returned %d spans, ring holds %d", len(traceDoc.Spans), len(tr.Spans))
	}

	// — Both exposition formats carry per-stage latency histograms. —
	var metricsDoc map[string]any
	getJSON(t, reportd.URL+"/metrics", &metricsDoc)
	for _, st := range wantStages {
		h, ok := metricsDoc[telemetry.StageMetric(st)].(map[string]any)
		if !ok {
			t.Errorf("JSON exposition missing histogram %s", telemetry.StageMetric(st))
			continue
		}
		if c, _ := h["count"].(float64); c < 1 {
			t.Errorf("histogram %s has count %v, want >= 1", telemetry.StageMetric(st), h["count"])
		}
	}

	resp, err := http.Get(reportd.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus exposition content type: %q", ct)
	}
	for _, st := range wantStages {
		name := telemetry.StageMetric(st)
		if !strings.Contains(string(promBody), name+"_count") {
			t.Errorf("prometheus exposition missing %s_count", name)
		}
		if !strings.Contains(string(promBody), name+"_bucket{le=") {
			t.Errorf("prometheus exposition missing %s buckets", name)
		}
	}

	// — The measurement itself landed: tracing is metadata, not data. —
	db := pipeline.Merge(0)
	if tot := db.Totals(); tot.Tested != 1 || tot.Proxied != 1 {
		t.Errorf("store totals %+v, want 1 tested / 1 proxied", tot)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
