package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"tlsfof/internal/core"
	"tlsfof/internal/store"
)

// Info describes what a recovery (or compaction) found and did.
type Info struct {
	// SnapshotSeq is the highest seq covered by the snapshot the store
	// was seeded from (0 = started empty).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed counts WAL frames applied on top of the snapshot.
	Replayed int `json:"replayed"`
	// LastSeq is the last applied sequence number.
	LastSeq uint64 `json:"last_seq"`
	// DroppedTail reports that the log ended in damage (torn write,
	// corruption, or a gap); Reason says where and why. Everything
	// before the damage point was recovered.
	DroppedTail bool   `json:"dropped_tail,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// Recover rebuilds a measurement store from a log directory: the newest
// valid snapshot (corrupt snapshots fall back to older ones, then to an
// empty store) plus a replay of every surviving WAL frame after it.
// Replay stops at the first damaged frame — a crash can only tear the
// tail, so recovery drops exactly the records that never became durable.
// A missing or empty directory recovers an empty store.
func Recover(opt Options) (*store.DB, Info, error) {
	opt = opt.withDefaults()
	db, info, _, err := recoverDir(opt)
	return db, info, err
}

// recoverDir is Recover plus the list of segment files fully applied
// (usable by Snapshot to compact them away).
func recoverDir(opt Options) (*store.DB, Info, []segmentRef, error) {
	var info Info
	covered, _, payload, err := latestSnapshot(opt.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return store.New(0), info, nil, nil
		}
		return nil, info, nil, err
	}
	var db *store.DB
	if payload != nil {
		if db, err = store.DecodeSnapshot(payload); err != nil {
			return nil, info, nil, fmt.Errorf("durable: decoding snapshot: %w", err)
		}
		info.SnapshotSeq = covered
	} else {
		db = store.New(0)
	}
	info.LastSeq = covered

	segs, err := listSegments(opt.Dir)
	if err != nil {
		return nil, info, nil, err
	}
	var complete []segmentRef
	next := covered + 1
	// Replayed strings are massively duplicated (few hosts, countries,
	// issuers across millions of frames); one interner per recovery
	// collapses them.
	intern := core.NewInterner(0)
	for _, seg := range segs {
		if seg.first > next {
			info.DroppedTail = true
			info.Reason = fmt.Sprintf("gap: segment %s starts at seq %d, expected %d", seg.path, seg.first, next)
			break
		}
		frames, _, damage, err := walkFrames(seg.path, seg.first, func(seq uint64, payload []byte) error {
			if seq < next {
				return nil // already in the snapshot
			}
			m, rest, err := core.DecodeMeasurementInterned(payload, intern)
			if err != nil {
				return fmt.Errorf("durable: frame %d: %w", seq, err)
			}
			if len(rest) != 0 {
				return fmt.Errorf("durable: frame %d has %d trailing bytes", seq, len(rest))
			}
			db.Ingest(m)
			info.Replayed++
			next = seq + 1
			return nil
		})
		if err != nil {
			// Framing was intact but the payload didn't decode: treat as
			// damage at this frame, drop the tail.
			info.DroppedTail = true
			info.Reason = err.Error()
			break
		}
		if damage != nil {
			info.DroppedTail = true
			info.Reason = fmt.Sprintf("%s: %v", seg.path, damage)
			break
		}
		seg.last = seg.first + uint64(frames) - 1
		complete = append(complete, seg)
	}
	if next > 0 {
		info.LastSeq = next - 1
	}
	return db, info, complete, nil
}

// Snapshot compacts a closed log directory in place: recover everything,
// write one snapshot covering every surviving frame, and delete the
// covered segments and superseded snapshots. After a clean Snapshot the
// directory holds a single snapshot file and recovery is one decode —
// the shutdown path reportd takes on SIGTERM.
func Snapshot(opt Options) (Info, error) {
	opt = opt.withDefaults()
	db, info, complete, err := recoverDir(opt)
	if err != nil {
		return info, err
	}
	if info.Replayed > 0 && info.LastSeq > info.SnapshotSeq {
		if _, err := writeSnapshotFile(opt.Dir, info.LastSeq, db.AppendSnapshot(nil)); err != nil {
			return info, err
		}
	}
	// Always sweep: fully-covered segments (including empty header-only
	// ones a quiet shard leaves behind) and superseded snapshots go.
	if err := removeCovered(opt.Dir, info.LastSeq, complete); err != nil {
		return info, err
	}
	return info, nil
}

// removeCovered deletes segments fully covered by the snapshot at
// covered, plus older snapshot files. Damaged segments (not in complete)
// are left behind for forensics; recovery skips their covered prefix.
func removeCovered(dir string, covered uint64, complete []segmentRef) error {
	for _, seg := range complete {
		if seg.last <= covered {
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: %w", err)
			}
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, sn := range snaps {
		if sn.covered < covered {
			if err := os.Remove(sn.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: %w", err)
			}
		}
	}
	return nil
}

// Compact folds the log's sealed segments into a fresh snapshot and
// deletes them, bounding disk while the log stays open for appends. The
// active segment is untouched, so Compact is safe to run concurrently
// with appends; frames written after the last Rotate stay in the WAL
// tail until the next compaction.
func (l *Log) Compact() (Info, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	sealed := append([]segmentRef(nil), l.sealed...)
	snapSeq := l.snapSeq
	l.mu.Unlock()

	info := Info{SnapshotSeq: snapSeq, LastSeq: snapSeq}
	if len(sealed) == 0 {
		return info, nil
	}

	var db *store.DB
	_, _, payload, err := latestSnapshot(l.opt.Dir)
	if err != nil {
		return info, err
	}
	if payload != nil {
		if db, err = store.DecodeSnapshot(payload); err != nil {
			return info, fmt.Errorf("durable: decoding snapshot: %w", err)
		}
	} else {
		db = store.New(0)
	}

	next := snapSeq + 1
	intern := core.NewInterner(0)
	for _, seg := range sealed {
		if seg.first > next {
			return info, fmt.Errorf("durable: compact: gap before %s (expected seq %d)", seg.path, next)
		}
		_, _, damage, err := walkFrames(seg.path, seg.first, func(seq uint64, payload []byte) error {
			if seq < next {
				return nil
			}
			m, rest, err := core.DecodeMeasurementInterned(payload, intern)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("durable: compact: frame %d undecodable", seq)
			}
			db.Ingest(m)
			info.Replayed++
			next = seq + 1
			return nil
		})
		if err != nil {
			return info, err
		}
		if damage != nil {
			// Sealed segments were fsynced before Rotate returned; damage
			// here is bit rot, not a crash. Refuse to compact it away.
			return info, fmt.Errorf("durable: compact: %s: %v", seg.path, damage)
		}
	}
	covered := sealed[len(sealed)-1].last
	info.LastSeq = covered
	path, err := writeSnapshotFile(l.opt.Dir, covered, db.AppendSnapshot(nil))
	if err != nil {
		return info, err
	}
	if err := removeCovered(l.opt.Dir, covered, sealed); err != nil {
		return info, err
	}

	l.mu.Lock()
	l.snapSeq = covered
	if fi, err := os.Stat(path); err == nil {
		l.snapBytes = fi.Size()
	}
	kept := l.sealed[:0]
	for _, seg := range l.sealed {
		if seg.last > covered {
			kept = append(kept, seg)
		}
	}
	l.sealed = kept
	l.stats.Compactions++
	l.mu.Unlock()
	return info, nil
}

// Checkpoint is Rotate followed by Compact: seal whatever has been
// appended so far and fold every sealed byte into the snapshot. The
// periodic durability tick reportd's -snapshot-every drives.
func (l *Log) Checkpoint() (Info, error) {
	if err := l.Rotate(); err != nil {
		return Info{}, err
	}
	return l.Compact()
}
