package durable

import (
	"errors"
	"fmt"
	"math"
	"os"

	"tlsfof/internal/core"
	"tlsfof/internal/store"
)

// Info describes what a recovery (or compaction) found and did.
type Info struct {
	// SnapshotSeq is the highest seq covered by the snapshot the store
	// was seeded from (0 = started empty).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed counts the measurements of the WAL frames applied on top
	// of the snapshot: a weighted row counts as its Count.
	Replayed int `json:"replayed"`
	// LastSeq is the last applied sequence number: a frame, not a
	// measurement.
	LastSeq uint64 `json:"last_seq"`
	// DroppedTail reports that the log ended in damage (torn write,
	// corruption, or a gap); Reason says where and why. Everything
	// before the damage point was recovered.
	DroppedTail bool   `json:"dropped_tail,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// dirScan is one reading of a log directory (see scan).
type dirScan struct {
	info Info
	// db is the store the reading replayed; nil unless it was asked to.
	db        *store.DB
	snapBytes int64
	// snaps lists every snapshot file, oldest first.
	snaps []snapshotRef
	// segs lists the segment files read, in sequence order. The usable
	// log is segs[:usable], each with last and bytes describing its valid
	// prefix; segs[usable:] lie past the end of the usable log.
	segs   []segmentRef
	usable int
	// torn reports that segs[usable-1] continues past its valid prefix
	// into damage.
	torn bool
}

// scan is the one reading of a log directory that Recover, Open's repair,
// OpenShards and compact share. It takes the newest snapshot whose CRC
// verifies (a corrupt one falls back to an older one, then to none), then
// walks the segments in sequence order, CRC-checking every frame and
// decoding every frame past the snapshot. The usable log ends at the
// first gap in the sequence, damaged segment header, damaged frame, or
// frame whose batch does not decode: a crash can only tear the tail, so
// this drops exactly the records that never became durable. A segment of
// another format version fails the reading instead (see readSegment).
// Segments whose first seq is past through are not read. With build set
// the snapshot is decoded and every frame after it applied to db, clean
// rows cell by cell (see store.DB.AddBatch).
func scan(dir string, through uint64, build bool) (*dirScan, error) {
	segs, snaps, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	s := &dirScan{snaps: snaps}
	var image []byte
	for i := len(snaps) - 1; i >= 0 && image == nil; i-- {
		if p, covered, err := readSnapshotFile(snaps[i].path); err == nil {
			image, s.info.SnapshotSeq, s.snapBytes = p, covered, int64(snapHeaderLen+len(p))
		}
	}
	if build {
		s.db = store.New(0)
		if image != nil {
			if s.db, err = store.DecodeSnapshot(image); err != nil {
				return nil, fmt.Errorf("durable: decoding snapshot: %w", err)
			}
		}
	}

	next := s.info.SnapshotSeq + 1
	var batch core.Batch
	decode := batch.Check
	if build {
		decode = batch.Decode
	}
	for i, seg := range segs {
		if seg.first > through {
			segs = segs[:i]
			break
		}
		if seg.first > next {
			s.dropTail(fmt.Sprintf("gap: segment %s starts at seq %d, expected %d", seg.path, seg.first, next))
			break
		}
		var undecodable error
		frames, valid, damage, err := walkFrames(seg.path, seg.first, func(seq uint64, payload []byte) error {
			if seq < next {
				return nil // already in the snapshot
			}
			if err := decode(payload); err != nil {
				undecodable = fmt.Errorf("frame %d: %w", seq, err)
				return undecodable
			}
			if build {
				s.db.AddBatch(&batch)
			}
			s.info.Replayed += int(batch.Count())
			next = seq + 1
			return nil
		})
		if err != nil && !errors.Is(err, undecodable) {
			return nil, err
		}
		if undecodable != nil {
			damage = undecodable
		}
		if damage != nil && valid < segHeaderLen {
			s.dropTail(fmt.Sprintf("%s: %v", seg.path, damage))
			break
		}
		seg.last, seg.bytes = seg.first+uint64(frames)-1, valid
		segs[i], s.usable = seg, i+1
		if damage != nil {
			s.torn = true
			s.dropTail(fmt.Sprintf("%s: %v", seg.path, damage))
			break
		}
	}
	s.segs = segs
	s.info.LastSeq = next - 1
	return s, nil
}

func (s *dirScan) dropTail(reason string) {
	s.info.DroppedTail, s.info.Reason = true, reason
}

// removeCovered deletes the usable segments a snapshot at covered holds
// in full, plus the snapshots it supersedes.
func (s *dirScan) removeCovered(covered uint64) error {
	for _, seg := range s.segs[:s.usable] {
		if seg.last <= covered {
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: %w", err)
			}
		}
	}
	for _, sn := range s.snaps {
		if sn.covered < covered {
			if err := os.Remove(sn.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: %w", err)
			}
		}
	}
	return nil
}

// Recover rebuilds a measurement store from a log directory: the newest
// valid snapshot plus a replay of every usable WAL frame after it (see
// scan). It never modifies the directory. A missing or empty directory
// recovers an empty store.
func Recover(opt Options) (*store.DB, Info, error) {
	s, err := scan(opt.Dir, math.MaxUint64, true)
	if err != nil {
		return nil, Info{}, err
	}
	return s.db, s.info, nil
}

// compact folds the sealed segments whose every frame lies below seq
// below into a fresh snapshot and deletes them, bounding disk while the
// log stays open for appends. The active segment is untouched, so compact
// is safe to run concurrently with appends; frames written after the last
// Rotate stay in the WAL tail until the next compaction.
func (l *Log) compact(below uint64) (Info, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	info := Info{SnapshotSeq: l.snapSeq, LastSeq: l.snapSeq}
	var through uint64
	for _, seg := range l.sealed {
		if seg.last < below {
			through = seg.last
		}
	}
	l.mu.Unlock()
	if through <= info.SnapshotSeq {
		return info, nil
	}

	s, err := scan(l.opt.Dir, through, true)
	if err != nil {
		return info, err
	}
	if s.info.DroppedTail || s.info.LastSeq != through {
		// Sealed segments were fsynced before Rotate returned; damage
		// here is bit rot, not a crash. Refuse to compact it away.
		return info, fmt.Errorf("durable: compact: log ends at seq %d, sealed through %d: %s", s.info.LastSeq, through, s.info.Reason)
	}
	image := s.db.AppendSnapshot(nil)
	if err := writeSnapshotFile(l.opt.Dir, through, image); err != nil {
		return info, err
	}
	if err := s.removeCovered(through); err != nil {
		return info, err
	}

	l.mu.Lock()
	l.snapSeq = through
	l.snapBytes = int64(snapHeaderLen + len(image))
	kept := l.sealed[:0]
	for _, seg := range l.sealed {
		if seg.last > through {
			kept = append(kept, seg)
		}
	}
	l.sealed = kept
	l.stats.Compactions++
	l.mu.Unlock()
	return s.info, nil
}

// Checkpoint is the one compactor: Rotate, then fold the sealed segments
// whose every frame lies below seq below. A tailed log passes its
// follower's watermark, so nothing the follower may still ask for goes;
// a log nobody tails passes math.MaxUint64.
func (l *Log) Checkpoint(below uint64) (Info, error) {
	if err := l.Rotate(); err != nil {
		return Info{}, err
	}
	return l.compact(below)
}
