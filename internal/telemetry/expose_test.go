package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape serves one /metrics request and returns the body.
func scrape(t *testing.T, h http.Handler, target string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d", target, rec.Code)
	}
	return rec.Body.String()
}

// TestHandlerJSONKeysAreFamilyNames: the JSON view is flat, and its keys
// are exactly the Prometheus view's family names — one name per number,
// even for a registered name the Prometheus grammar has to rewrite.
func TestHandlerJSONKeysAreFamilyNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "requests").Add(7)
	reg.Gauge("depth", "queue depth").Set(3)
	reg.GaugeFunc("health_verdict_node-b", "", func() float64 { return 2 })
	reg.Histogram("stage_probe_seconds", "probe latency").Observe(time.Millisecond)
	h := Handler(reg)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["reqs_total"] != float64(7) || got["depth"] != float64(3) || got["health_verdict_node_b"] != float64(2) {
		t.Fatalf("JSON values: %v", got)
	}
	var families []string
	for _, line := range strings.Split(scrape(t, h, "/metrics?format=prometheus"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Strings(families)
	if !slices.Equal(keys, families) {
		t.Fatalf("JSON keys %v != Prometheus families %v", keys, families)
	}
}

func TestHandlerJSONHistogram(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("stage_probe_seconds", "probe latency")
	for i := 0; i < 10; i++ {
		hist.Observe(time.Millisecond)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(scrape(t, Handler(reg), "/metrics")), &got); err != nil {
		t.Fatal(err)
	}
	h := got["stage_probe_seconds"].(map[string]any)
	if h["count"] != float64(10) {
		t.Fatalf("count = %v, want 10", h["count"])
	}
	if p99, ok := h["p99_seconds"].(float64); !ok || p99 <= 0 {
		t.Fatalf("p99_seconds = %v", h["p99_seconds"])
	}
}

func TestHandlerPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "total requests").Add(7)
	reg.Gauge("depth", "queue depth").Set(3)
	reg.GaugeFunc("fn_gauge", "", func() float64 { return 1.5 })
	hist := reg.Histogram("stage_probe_seconds", "probe latency")
	hist.Observe(time.Millisecond) // bucket bound 2^20 ns
	hist.Observe(3 * time.Millisecond)

	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE reqs_total counter",
		"reqs_total 7",
		"# TYPE depth gauge",
		"depth 3",
		"fn_gauge 1.5",
		"# TYPE stage_probe_seconds histogram",
		"stage_probe_seconds_count 2",
		`stage_probe_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, body)
		}
	}
	// Cumulative bucket counts must be nondecreasing and end at count.
	var last uint64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "stage_probe_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
	if last != 2 {
		t.Fatalf("final cumulative bucket = %d, want 2", last)
	}
	// The Accept header also selects the text format.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	Handler(reg).ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "# TYPE reqs_total counter") {
		t.Fatal("Accept: text/plain did not select prometheus format")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":     "ok_name",
		"has-dash":    "has_dash",
		"dot.path":    "dot_path",
		"9starts":     "_9starts",
		"mixed.9-a_b": "mixed_9_a_b",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerNilRegistry(t *testing.T) {
	if body := scrape(t, Handler(nil), "/metrics"); strings.TrimSpace(body) != "{}" {
		t.Fatalf("nil registry JSON = %q", body)
	}
	if body := scrape(t, Handler(nil), "/metrics?format=prometheus"); body != "" {
		t.Fatalf("nil registry prometheus = %q", body)
	}
}
