package ingest

import (
	"fmt"
	"os"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/telemetry"
)

// TestMetricsOverheadSmoke pins the cost of mounting the telemetry plane
// on the ingest hot path: the same batched workload runs through an
// uninstrumented pipeline and one with a Tracer mounted (the reportd
// default — every measurement untraced, so the tracer adds clock reads
// and histogram observes per batch but no span work). Fails if the
// instrumented path is more than 5% slower, best-of-N on both sides to
// shave scheduler noise.
//
// Wall-clock comparisons are inherently jittery on shared CI runners, so
// the test only runs when METRICS_OVERHEAD_SMOKE is set (the CI workflow
// sets it in a dedicated step); locally: METRICS_OVERHEAD_SMOKE=1 go test
// -run TestMetricsOverheadSmoke ./internal/ingest/
func TestMetricsOverheadSmoke(t *testing.T) {
	if os.Getenv("METRICS_OVERHEAD_SMOKE") == "" {
		t.Skip("set METRICS_OVERHEAD_SMOKE=1 to run the timing comparison")
	}
	const (
		batchSize = 256
		batches   = 200
		rounds    = 5
	)
	batch := make([]core.Measurement, batchSize)
	for i := range batch {
		batch[i] = core.Measurement{
			Host: fmt.Sprintf("host-%d.example", i%8),
			Obs:  core.Observation{Proxied: i%16 == 0},
		}
	}

	run := func(tracer *telemetry.Tracer) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			p := NewPipeline(Config{Shards: 2, Tracer: tracer})
			start := time.Now()
			for b := 0; b < batches; b++ {
				p.IngestBatch(batch)
			}
			p.Drain()
			if d := time.Since(start); d < best {
				best = d
			}
			p.Close()
		}
		return best
	}

	// Interleave would be fairer still, but alternating pipelines keeps
	// the code simple and best-of-5 absorbs one-off stalls either way.
	bare := run(nil)
	reg := telemetry.NewRegistry()
	instrumented := run(telemetry.NewTracer(reg, 0))

	t.Logf("uninstrumented: %v, instrumented: %v (%+.2f%%)",
		bare, instrumented, 100*(float64(instrumented)/float64(bare)-1))
	if float64(instrumented) > float64(bare)*1.05 {
		t.Fatalf("telemetry overhead exceeds 5%%: bare %v vs instrumented %v", bare, instrumented)
	}
}
