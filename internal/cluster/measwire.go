package cluster

import (
	"encoding/binary"
	"fmt"

	"tlsfof/internal/core"
)

// Measurement batch wire, the /cluster/ingest request body:
//
//	batch   = magic "TFM2" | id 8 bytes BE | count uvarint | count × record
//	record  = len uvarint | payload (one encoded core.Measurement)
//
// The count is up front so a node can reject a batch atomically: either
// every record decodes and the whole batch is applied, or nothing is —
// the property that makes rerouted retries duplicate-free. Payload bytes
// are the same core codec the WAL frames, so a routed batch appends to
// the owner's WAL without re-encoding.
//
// The client-generated batch ID lets the owner suppress duplicate
// applies. Atomicity alone is not enough under an asymmetric partition:
// a one-way cut delivers the request and drops the ack, so the client
// retries a batch the owner already applied. The ID lets the owner answer
// the retry with the stored verdict instead of double-counting. ID 0
// means "no dedup".
const (
	measMagic2 = "TFM2"
	// MaxMeasBatchBytes bounds one ingest request body.
	MaxMeasBatchBytes = 32 << 20
	// MaxMeasBatch bounds records per batch.
	MaxMeasBatch = 1 << 17
)

// AppendMeasurementsID encodes a batch carrying a client-generated dedup
// ID (0 = no dedup).
func AppendMeasurementsID(dst []byte, id uint64, ms []core.Measurement) []byte {
	dst = append(dst, measMagic2...)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(ms)))
	var scratch []byte
	for _, m := range ms {
		scratch = core.AppendMeasurement(scratch[:0], m)
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	return dst
}

// DecodeMeasurementsID decodes a complete batch and returns its dedup ID,
// rejecting truncation, trailing bytes, and out-of-bounds counts —
// all-or-nothing by design.
func DecodeMeasurementsID(b []byte) ([]core.Measurement, uint64, error) {
	if len(b) < len(measMagic2)+8 || string(b[:4]) != measMagic2 {
		return nil, 0, fmt.Errorf("cluster: bad batch magic")
	}
	id := binary.BigEndian.Uint64(b[4:12])
	rest := b[12:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, 0, fmt.Errorf("cluster: bad batch count")
	}
	if count > MaxMeasBatch {
		return nil, 0, fmt.Errorf("cluster: batch of %d records exceeds %d", count, MaxMeasBatch)
	}
	rest = rest[n:]
	ms := make([]core.Measurement, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, fmt.Errorf("cluster: record %d: bad length", i)
		}
		rest = rest[n:]
		if size == 0 || uint64(len(rest)) < size {
			return nil, 0, fmt.Errorf("cluster: record %d: truncated (%d byte payload, %d left)", i, size, len(rest))
		}
		m, tail, err := core.DecodeMeasurement(rest[:size])
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: record %d: %w", i, err)
		}
		if len(tail) != 0 {
			return nil, 0, fmt.Errorf("cluster: record %d: %d trailing bytes", i, len(tail))
		}
		ms = append(ms, m)
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("cluster: %d trailing bytes after batch", len(rest))
	}
	return ms, id, nil
}
