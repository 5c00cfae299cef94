// Package ingest is the measurement-ingestion data plane between the
// reporting server (core.Collector) and the measurement store
// (store.DB).
//
// The paper's second study pushed 12.3M measurements through one reporting
// server into "a database, where we can run queries" (§5.1). This package
// is that path in three layers:
//
//   - Batching: BatchSink receives measurements in amortized batches;
//     Batcher adapts the one-at-a-time core.Sink producer side.
//   - Sharding: Pipeline hash-partitions the stream by probed host onto N
//     shard engines (durable.Shard: WAL + store.DB + one lock) and commits
//     each full per-shard buffer synchronously on the caller's goroutine —
//     no queue, so nothing is ever dropped and backpressure is the
//     caller waiting for the shard lock.
//   - Merging: store.Merge folds the shard databases back into one DB
//     whose every table and aggregate matches the single-threaded result.
//
// A compact binary wire codec (wire.go) replaces per-request concatenated
// PEM re-parsing on the client→reportd upload path; BatchHandler (http.go)
// serves it at /ingest/batch.
package ingest

import (
	"sync"

	"tlsfof/internal/core"
)

// BatchSink receives completed measurements in batches. Implementations
// must be safe for concurrent use. The batch is lent for the duration of
// the call — callers reuse the slice afterwards — so an implementation
// copies whatever it keeps.
type BatchSink interface {
	IngestBatch([]core.Measurement)
}

// DefaultBatchSize is the batch length Batcher and Pipeline use when the
// caller does not choose one. Large enough to amortize per-batch costs
// (lock acquisition, WAL append call), small enough that a batch stays
// cache-resident.
const DefaultBatchSize = 256

// Batcher is a core.Sink that accumulates measurements and forwards
// size-limited batches to a BatchSink. It is safe for concurrent use, but
// peak throughput comes from one Batcher per producer goroutine (no lock
// contention); the downstream BatchSink serializes as needed.
//
// A Batcher owns one buffer for its whole life: the sink only borrows a
// batch (see BatchSink), so the buffer refills as soon as IngestBatch
// returns and steady-state forwarding allocates nothing. The Batcher's
// lock is held across the forward for the same reason.
//
// Call Flush after the final Ingest — a partial batch otherwise stays
// buffered.
type Batcher struct {
	sink BatchSink
	size int

	mu  sync.Mutex
	buf []core.Measurement
}

// NewBatcher returns a Batcher forwarding to sink in batches of size
// (DefaultBatchSize when size <= 0).
func NewBatcher(sink BatchSink, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &Batcher{sink: sink, size: size, buf: make([]core.Measurement, 0, size)}
}

// Ingest buffers m, forwarding a full batch downstream when the buffer
// reaches the configured size.
func (b *Batcher) Ingest(m core.Measurement) {
	b.mu.Lock()
	b.buf = append(b.buf, m)
	if len(b.buf) >= b.size {
		b.forward()
	}
	b.mu.Unlock()
}

// Flush forwards any buffered partial batch downstream.
func (b *Batcher) Flush() {
	b.mu.Lock()
	if len(b.buf) > 0 {
		b.forward()
	}
	b.mu.Unlock()
}

// forward lends the buffer to the sink and rewinds it. Caller holds b.mu.
func (b *Batcher) forward() {
	b.sink.IngestBatch(b.buf)
	b.buf = b.buf[:0]
}
