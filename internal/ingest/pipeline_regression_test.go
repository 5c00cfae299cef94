package ingest

// Regression tests for the pipeline's accounting and lifecycle edges:
// every Stats snapshot is coherent under concurrent producers and
// Drains, Ingest after Close is defined, and the host partition never
// moves.

import (
	"sync"
	"testing"
	"time"

	"tlsfof/internal/hostdb"
)

// TestIngestedNeverExceedsEnqueued pins the accounting under
// concurrency: Stats promises Ingested <= Enqueued in every snapshot,
// and the two meet once the pipeline is drained. Producers, a Drain
// hammer, and a Stats sampler run together (under -race in CI).
func TestIngestedNeverExceedsEnqueued(t *testing.T) {
	p := NewPipeline(Config{Shards: 4, BatchSize: 2})
	ms := walTestMeasurements(256)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.Ingest(ms[(i+w*17)%len(ms)])
				if i%32 == 0 {
					p.IngestBatch(ms[:8])
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Drain()
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := p.Stats()
		if st.Ingested > st.Enqueued {
			t.Errorf("snapshot violates invariant: ingested %d > enqueued %d", st.Ingested, st.Enqueued)
			break
		}
	}
	close(stop)
	wg.Wait()
	p.Drain()
	st := p.Stats()
	if st.Ingested != st.Enqueued {
		t.Fatalf("after drain: ingested %d != enqueued %d", st.Ingested, st.Enqueued)
	}
	if got := p.Merge(0).Totals().Tested; uint64(got) != st.Ingested {
		t.Fatalf("stores hold %d measurements, accounting says %d", got, st.Ingested)
	}
	p.Close()
}

// TestIngestAfterClose pins the defined late-producer behaviour: no
// panic, the measurement still reaches its shard store, and on a durable
// pipeline the refused write-ahead append is counted — never a silent
// store-only apply.
func TestIngestAfterClose(t *testing.T) {
	ms := walTestMeasurements(8)
	for _, dir := range []string{"", t.TempDir()} {
		p, _, err := OpenPipeline(Config{Shards: 2, BatchSize: 1, WALDir: dir})
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

// TestShardOfPinned pins ShardOf over the study-2 hosts, in hostdb
// order, at 2 and 4 shards. Shard manifests record this partition on
// disk, so a change here strands every existing data directory.
func TestShardOfPinned(t *testing.T) {
	for n, want := range map[int]string{2: "10111010110100010", 4: "30131030132322010"} {
		got := make([]byte, 0, len(want))
		for _, h := range hostdb.SecondStudyHosts() {
			got = append(got, byte('0'+ShardOf(h.Name, n)))
		}
		if string(got) != want {
			t.Errorf("ShardOf at n=%d = %s, want %s", n, got, want)
		}
	}
}
