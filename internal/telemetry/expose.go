package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// registryJSON renders a registry snapshot as the /metrics JSON object,
// keyed by the names WritePrometheus gives the same metrics: counters and
// gauges as numbers, histograms as {count, sum_seconds, p50/p90/p99
// upper-bound estimates}.
func registryJSON(reg *Registry) map[string]any {
	out := make(map[string]any)
	for _, m := range reg.Snapshot() {
		name := sanitizeMetricName(m.Name)
		switch m.Kind {
		case KindHistogram:
			out[name] = map[string]any{
				"count":       m.Hist.Count,
				"sum_seconds": m.Hist.SumSeconds,
				"p50_seconds": m.Hist.Quantile(0.50).Seconds(),
				"p90_seconds": m.Hist.Quantile(0.90).Seconds(),
				"p99_seconds": m.Hist.Quantile(0.99).Seconds(),
			}
		default:
			out[name] = m.Value
		}
	}
	return out
}

// sanitizeMetricName maps a registered name onto the Prometheus metric
// name grammar.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Histograms emit cumulative le buckets in
// seconds plus _sum and _count, as a native Prometheus histogram would.
// Zero buckets are elided — 64 log2 buckets are mostly empty and the
// cumulative encoding stays exact without them.
func WritePrometheus(w *strings.Builder, reg *Registry) {
	for _, m := range reg.Snapshot() {
		name := sanitizeMetricName(m.Name)
		if m.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, strings.ReplaceAll(m.Help, "\n", " "))
		}
		switch m.Kind {
		case KindCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, formatFloat(m.Value))
		case KindGauge, KindGaugeFunc:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(m.Value))
		case KindHistogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum uint64
			for i, c := range m.Hist.Buckets {
				cum += c
				if c == 0 {
					continue
				}
				le := float64(BucketBound(i)) / 1e9
				fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(le), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(m.Hist.SumSeconds))
			fmt.Fprintf(w, "%s_count %d\n", name, m.Hist.Count)
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves /metrics: the registry, one entry per metric, in two
// encodings. Plain JSON is a flat object keyed by the metric's
// Prometheus family name — counters and gauges as numbers, histograms as
// {count, sum_seconds, p50/p90/p99_seconds}. With ?format=prometheus (or
// an Accept header naming text/plain first) the same metrics render as
// Prometheus text format, histograms with real cumulative buckets.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			var b strings.Builder
			WritePrometheus(&b, reg)
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write([]byte(b.String()))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(registryJSON(reg))
	})
}

func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.HasPrefix(accept, "text/plain")
}
