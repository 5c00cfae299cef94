package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"tlsfof/internal/core"
)

// Snapshot serialization: the durable persistence plane (internal/durable)
// periodically folds the WAL prefix into one of these compact images so
// disk stays bounded at paper scale — a snapshot of a 12.3M-test store is
// a few megabytes (one row per clean cell plus the proxied records)
// against gigabytes of raw WAL frames.
//
// The image is batch frames, the layout of every WAL frame (internal/core):
//
//	image = version 4 | retainLimit varint | (len uint32le | batch)*
//
// The first rows are one weighted row per cell with any clean test, in
// sorted cell order: the count is tested − proxied, and the tuple names
// the host type alone. The retained proxied records follow, in store
// order. The rows are cut into frames of at most core.MaxBatchRows, built
// with core.Batch.AddN and encoded with dedup and trace IDs 0, so equal
// stores give equal bytes. DecodeSnapshot applies each frame with
// AddBatch, so tables rendered from a decoded snapshot are byte-identical
// to tables rendered from the live store. Framing (magic, length, CRC,
// atomic file replacement) is the durable layer's job: the image ends
// where its bytes do.

// snapshotVersion is bumped on any encoding change; decode rejects
// mismatches rather than guessing.
const snapshotVersion = 4

// AppendSnapshot appends the deterministic binary image of the store to
// dst and returns the extended slice. It takes the store lock once.
func (db *DB) AppendSnapshot(dst []byte) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()

	dst = append(dst, snapshotVersion)
	dst = binary.AppendVarint(dst, int64(db.retainLimit))
	var batch core.Batch
	flush := func() {
		if len(batch.Rows) == 0 {
			return
		}
		batch.Trace = 0
		start := len(dst)
		dst = batch.AppendTo(append(dst, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
		batch.Reset(0, 0)
	}
	add := func(m *core.Measurement, n uint32) {
		if len(batch.Rows) == core.MaxBatchRows {
			flush()
		}
		batch.AddN(m, n)
	}
	cells := slices.SortedFunc(maps.Keys(db.cells), func(a, b cell) int {
		return cmp.Or(cmp.Compare(a.country, b.country), cmp.Compare(a.cat, b.cat))
	})
	for _, k := range cells {
		m := core.Measurement{Time: time.Unix(0, 0), Country: k.country, HostCategory: k.cat}
		a := db.cells[k]
		for clean := a.Tested - a.Proxied; clean > 0; clean -= math.MaxUint32 {
			add(&m, uint32(min(clean, math.MaxUint32)))
		}
	}
	for i := range db.proxied {
		add(&db.proxied[i], 1)
	}
	flush()
	return dst
}

// DecodeSnapshot rebuilds a store from a snapshot image produced by
// AppendSnapshot. The image must be complete; a frame cut short is an
// error (the durable layer hands over an exact, CRC-verified payload).
func DecodeSnapshot(b []byte) (*DB, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("store: empty snapshot")
	}
	if b[0] != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d, this build reads version %d", b[0], snapshotVersion)
	}
	retain, n := binary.Varint(b[1:])
	if n <= 0 {
		return nil, fmt.Errorf("store: snapshot truncated at retain limit")
	}
	db := New(int(retain))
	var batch core.Batch
	for i, rest := 0, b[1+n:]; len(rest) > 0; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("store: snapshot truncated at frame %d", i)
		}
		// A frame length is checked against the bytes left before
		// anything is sized by it.
		size := uint64(binary.LittleEndian.Uint32(rest))
		if size > uint64(len(rest)-4) {
			return nil, fmt.Errorf("store: snapshot frame %d of %d bytes exceeds the %d bytes left", i, size, len(rest)-4)
		}
		if err := batch.Decode(rest[4 : 4+size]); err != nil {
			return nil, fmt.Errorf("store: snapshot frame %d: %w", i, err)
		}
		db.AddBatch(&batch)
		rest = rest[4+size:]
	}
	return db, nil
}
