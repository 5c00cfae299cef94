package ingest

// Regression test for the pipeline's lifecycle edge: Ingest after Close
// is defined.

import "testing"

// TestIngestAfterClose pins the defined late-producer behaviour: no
// panic, the measurement still reaches its shard store, and on a durable
// pipeline the refused write-ahead append is counted — never a silent
// store-only apply.
func TestIngestAfterClose(t *testing.T) {
	ms := walTestMeasurements(8)
	for _, dir := range []string{"", t.TempDir()} {
		p, _, err := OpenPipeline(Config{Shards: 2, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		p.IngestBatch(ms[:4])
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		p.Ingest(ms[4])
		p.IngestBatch(ms[5:])
		st := p.Stats()
		if st.Ingested != uint64(len(ms)) {
			t.Errorf("WALDir %q: ingested %d after late producers, want %d", dir, st.Ingested, len(ms))
		}
		wantErrs := uint64(0)
		if dir != "" {
			wantErrs = 4
		}
		if st.WALErrors != wantErrs {
			t.Errorf("WALDir %q: %d WAL errors, want %d", dir, st.WALErrors, wantErrs)
		}
		if dir != "" {
			if got := recoverAll(t, dir, 2).Totals().Tested; got != 4 {
				t.Errorf("WAL replays %d measurements, want the 4 committed before Close", got)
			}
		}
	}
}
