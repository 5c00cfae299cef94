package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
)

// Snapshot serialization: the durable persistence plane (internal/durable)
// periodically folds the WAL prefix into one of these compact images so
// disk stays bounded at paper scale — a snapshot of a 12.3M-test store is
// a few megabytes (aggregates plus the proxied records) against gigabytes
// of raw WAL frames.
//
// The image is version | retainLimit | totals | byCountry |
// byHostCategory | retained. The encoding is deterministic (each map
// walks in sorted key order) and exact: DecodeSnapshot(AppendSnapshot(db))
// reproduces both aggregate maps and the proxied records in order, so
// tables rendered from a decoded snapshot are byte-identical to tables
// rendered from the live store. Framing (magic, CRC, atomic file
// replacement) is the durable layer's job; this file only encodes state.
//
// The proxied records are batch frames (internal/core's layout): the
// count of frames, then each frame as a uint32le length and its bytes.
// The records are cut into frames of at most core.MaxBatchRows, in
// order, each built with core.Batch.Add and encoded with dedup and trace
// IDs 0, so equal record sequences give equal bytes.

// snapshotVersion is bumped on any encoding change; decode rejects
// mismatches rather than guessing.
const snapshotVersion = 3

// AppendSnapshot appends the deterministic binary image of the store to
// dst and returns the extended slice. It takes the store lock once.
func (db *DB) AppendSnapshot(dst []byte) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()

	dst = append(dst, snapshotVersion)
	dst = binary.AppendVarint(dst, int64(db.retainLimit))
	dst = appendAgg(dst, db.totals)
	dst = binary.AppendUvarint(dst, uint64(len(db.byCountry)))
	for _, k := range slices.Sorted(maps.Keys(db.byCountry)) {
		dst = appendAgg(appendSnapString(dst, k), db.byCountry[k])
	}
	dst = binary.AppendUvarint(dst, uint64(len(db.byHostCat)))
	for _, k := range slices.Sorted(maps.Keys(db.byHostCat)) {
		dst = appendAgg(binary.AppendUvarint(dst, uint64(k)), db.byHostCat[k])
	}

	var batch core.Batch
	dst = binary.AppendUvarint(dst, uint64((len(db.proxied)+core.MaxBatchRows-1)/core.MaxBatchRows))
	for rest := db.proxied; len(rest) > 0; rest = rest[min(len(rest), core.MaxBatchRows):] {
		batch.Reset(0, 0)
		for i := range rest[:min(len(rest), core.MaxBatchRows)] {
			batch.Add(&rest[i])
		}
		batch.Trace = 0
		start := len(dst)
		dst = batch.AppendTo(append(dst, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	}
	return dst
}

func appendAgg(dst []byte, a Agg) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Tested))
	return binary.AppendUvarint(dst, uint64(a.Proxied))
}

// DecodeSnapshot rebuilds a store from a snapshot image produced by
// AppendSnapshot. The image must be complete; trailing bytes are an
// error (the durable layer hands over an exact, CRC-verified payload).
func DecodeSnapshot(b []byte) (*DB, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("store: empty snapshot")
	}
	if b[0] != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d, this build reads version %d", b[0], snapshotVersion)
	}
	b = b[1:]
	retain, b, err := readSnapVarint(b, "retain limit")
	if err != nil {
		return nil, err
	}
	db := New(int(retain))
	if db.totals, b, err = readAgg(b, "totals"); err != nil {
		return nil, err
	}

	count, b, err := readSnapCount(b, "country count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var k string
		if k, b, err = readSnapString(b, "country key"); err != nil {
			return nil, err
		}
		if db.byCountry[k], b, err = readAgg(b, "country"); err != nil {
			return nil, err
		}
	}
	if count, b, err = readSnapCount(b, "host category count"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var k uint64
		if k, b, err = readSnapUvarint(b, "host category"); err != nil {
			return nil, err
		}
		if db.byHostCat[hostdb.Category(k)], b, err = readAgg(b, "host category"); err != nil {
			return nil, err
		}
	}

	if count, b, err = readSnapCount(b, "retained batch count"); err != nil {
		return nil, err
	}
	var batch core.Batch
	for i := uint64(0); i < count; i++ {
		if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
			return nil, fmt.Errorf("store: snapshot truncated at retained batch %d", i)
		}
		frame := b[4 : 4+binary.LittleEndian.Uint32(b)]
		if err := batch.Decode(frame); err != nil {
			return nil, fmt.Errorf("store: snapshot retained batch %d: %w", i, err)
		}
		b = b[4+len(frame):]
		for r := range batch.Rows {
			db.proxied = append(db.proxied, batch.Measurement(r))
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("store: snapshot has %d trailing bytes", len(b))
	}
	return db, nil
}

func readAgg(b []byte, what string) (Agg, []byte, error) {
	t, b, err := readSnapUvarint(b, what+" tested")
	if err != nil {
		return Agg{}, nil, err
	}
	p, b, err := readSnapUvarint(b, what+" proxied")
	if err != nil {
		return Agg{}, nil, err
	}
	return Agg{Tested: int(t), Proxied: int(p)}, b, nil
}

func appendSnapString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readSnapUvarint(b []byte, field string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("store: snapshot truncated at %s", field)
	}
	return v, b[n:], nil
}

// readSnapCount reads an entry count. Every entry takes at least one
// byte, so a count past the bytes left is damage; bounding it keeps a
// damaged or hostile image from sizing an allocation.
func readSnapCount(b []byte, field string) (uint64, []byte, error) {
	n, b, err := readSnapUvarint(b, field)
	if err == nil && n > uint64(len(b)) {
		return 0, nil, fmt.Errorf("store: snapshot %s %d exceeds the %d bytes left", field, n, len(b))
	}
	return n, b, err
}

func readSnapVarint(b []byte, field string) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("store: snapshot truncated at %s", field)
	}
	return v, b[n:], nil
}

func readSnapString(b []byte, field string) (string, []byte, error) {
	n, b, err := readSnapUvarint(b, field)
	if err != nil {
		return "", nil, err
	}
	if n > core.MaxCodecStringLen {
		return "", nil, fmt.Errorf("store: snapshot %s of %d bytes exceeds %d", field, n, core.MaxCodecStringLen)
	}
	if uint64(len(b)) < n {
		return "", nil, fmt.Errorf("store: snapshot truncated at %s", field)
	}
	return string(b[:n]), b[n:], nil
}
