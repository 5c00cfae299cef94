package cluster

import (
	"fmt"

	"tlsfof/internal/core"
)

// Measurement batch wire, the /cluster/ingest request body: one batch
// frame in internal/core's layout (core.Batch) —
//
//	batch = magic "TFMB" | version | crc32c | id | trace | rows
//	      | tuple table | country table | fixed-width rows
//
// the same bytes, split by shard, that the owner's WAL frames hold. The
// row count is up front and the CRC covers the whole batch, so a node
// rejects a batch atomically: either every row decodes and the whole
// batch is applied, or nothing is — the property that makes rerouted
// retries duplicate-free.
//
// The client-generated batch ID lets the owner suppress duplicate
// applies. Atomicity alone is not enough under an asymmetric partition:
// a one-way cut delivers the request and drops the ack, so the client
// retries a batch the owner already applied. The ID lets the owner answer
// the retry with the stored verdict instead of double-counting. ID 0
// means "no dedup".

// MaxMeasBatchBytes bounds one ingest request body; core.MaxBatchRows
// bounds its rows.
const MaxMeasBatchBytes = 32 << 20

// AppendMeasurementsID encodes a batch carrying a client-generated dedup
// ID (0 = no dedup). ms holds at most core.MaxBatchRows measurements;
// it panics on more (see core.Batch.AppendTo).
func AppendMeasurementsID(dst []byte, id uint64, ms []core.Measurement) []byte {
	b := core.Batch{ID: id}
	for i := range ms {
		b.Add(&ms[i])
	}
	return b.AppendTo(dst)
}

// DecodeMeasurementsID decodes a complete batch and returns its dedup ID,
// rejecting truncation, trailing bytes, and out-of-bounds counts —
// all-or-nothing by design. The measurements share their batch's
// strings, and none carries a trace ID.
func DecodeMeasurementsID(p []byte) ([]core.Measurement, uint64, error) {
	var b core.Batch
	if err := b.Decode(p); err != nil {
		return nil, 0, fmt.Errorf("cluster: %w", err)
	}
	ms := make([]core.Measurement, len(b.Rows))
	for i := range ms {
		ms[i] = b.Measurement(i)
	}
	return ms, b.ID, nil
}
