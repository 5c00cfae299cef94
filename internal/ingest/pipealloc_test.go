package ingest

// Allocation pins for the ingest hot paths. The hand-off from a producer
// to a shard store runs on two kinds of long-lived buffer — each
// Batcher's one batch buffer and each shard's pending buffer — and an
// on-stack routing table, so steady state allocates nothing; these tests
// keep that property from rotting. All pins skip under -race: the race
// runtime instruments allocations and the counts stop meaning anything.

import (
	"bytes"
	"fmt"
	"testing"

	"tlsfof/internal/core"
	"tlsfof/internal/raceflag"
)

// allocTestMeasurements is a warm-store workload: unproxied measurements
// over a fixed key set, so once every aggregate key exists the shard
// stores themselves allocate nothing and the pins see only the hand-off.
func allocTestMeasurements(n int) []core.Measurement {
	ms := walTestMeasurements(n)
	for i := range ms {
		ms[i].Obs = core.Observation{}
	}
	return ms
}

// TestSplitAllocs pins the batch face end to end — Batcher.Ingest fills
// the Batcher's buffer, Pipeline.IngestBatch routes it into the shard
// pending buffers, full buffers commit to the shard stores — at zero
// allocations per batch, with and without a shard split. A fresh
// sub-batch (or a fresh Batcher buffer) per flush would show up here as
// at least one allocation per batch.
func TestSplitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := NewPipeline(Config{Shards: shards})
			defer p.Close()
			b := NewBatcher(p, 0)
			batch := allocTestMeasurements(DefaultBatchSize)
			oneBatch := func() {
				for i := range batch {
					b.Ingest(batch[i])
				}
			}
			for i := 0; i < 8; i++ { // warm the store keys
				oneBatch()
			}
			if allocs := testing.AllocsPerRun(200, oneBatch); allocs != 0 {
				t.Fatalf("Batcher -> Pipeline allocates %.2f per %d-measurement batch, want 0", allocs, len(batch))
			}
			b.Flush()
			p.Drain()
			if st := p.Stats(); st.Ingested != 209*uint64(len(batch)) {
				t.Fatalf("ingested %d, want %d", st.Ingested, 209*len(batch))
			}
		})
	}
}

// TestIngestAllocs pins the one-measurement Sink face: appending into a
// shard's pending buffer and committing it when full is allocation-free
// in steady state.
func TestIngestAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := NewPipeline(Config{Shards: shards, BatchSize: 8})
			defer p.Close()
			ms := allocTestMeasurements(64)
			next := 0
			one := func() {
				p.Ingest(ms[next%len(ms)])
				next++
			}
			for i := 0; i < 400; i++ {
				one()
			}
			if allocs := testing.AllocsPerRun(800, one); allocs != 0 {
				t.Fatalf("Ingest allocates %.2f/op, want 0", allocs)
			}
		})
	}
}

// TestArenaDecodeAllocs pins decode-in-place: on a warm arena (blocks
// grown, hosts interned) decoding a whole wire stream performs zero
// heap allocations — DER bytes and chain headers carve out of recycled
// blocks, host names hit the intern table, and the decoder's buffers
// rearm via Reset. The plain decoder costs ~3 allocs per report (host
// string, chain header, DER copy); this is the per-request delta the
// pooled HTTP handlers bank on.
func TestArenaDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reports := make([]Report, 0, 32)
	for i := 0; i < 32; i++ {
		reports = append(reports, Report{
			Host:     []string{"a.example", "b.example"}[i%2],
			ChainDER: [][]byte{bytes.Repeat([]byte{0x30}, 700), bytes.Repeat([]byte{0x31}, 900)},
			Trace:    uint64(i),
		})
	}
	stream, err := EncodeReports(reports)
	if err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(stream)
	a := NewArena()
	dec := NewArenaDecoder(r, a)
	decodeAll := func() {
		r.Reset(stream)
		dec.Reset(r)
		n := 0
		for {
			if _, err := dec.Next(); err != nil {
				break
			}
			n++
		}
		if n != len(reports) {
			t.Fatalf("decoded %d reports, want %d", n, len(reports))
		}
		a.Reset()
	}
	decodeAll() // warm: grow arena blocks, intern hosts
	allocs := testing.AllocsPerRun(100, decodeAll)
	if allocs > 0 {
		t.Fatalf("warm arena decode allocates %.2f per %d-report stream, want 0", allocs, len(reports))
	}
}
