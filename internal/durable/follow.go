package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"tlsfof/internal/core"
)

// ErrTailAhead reports a follower asking for a sequence the source has
// never written — the replica belongs to a different incarnation of the
// log (an operator wiped or replaced the source directory). Replication
// must not silently continue: the follower's watermark would race ahead
// of data that was never copied.
var ErrTailAhead = errors.New("durable: follower is ahead of source log")

// NextSeq returns the sequence the next appended frame will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// AppendEncoded appends a pre-encoded measurement payload — the exact
// bytes a replication frame carried — without a decode/re-encode round
// trip, preserving frame-for-frame identity between a replica log and
// its source. The payload is validated first so a replica directory is
// always recoverable.
func (l *Log) AppendEncoded(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFramePayload {
		return fmt.Errorf("durable: encoded payload %d bytes out of bounds", len(payload))
	}
	if _, rest, err := core.DecodeMeasurement(payload); err != nil {
		return fmt.Errorf("durable: encoded payload: %w", err)
	} else if len(rest) != 0 {
		return fmt.Errorf("durable: encoded payload has %d trailing bytes", len(rest))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: append on closed log")
	}
	var hdr [frameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return l.appendedFrameLocked(int64(frameHdrLen + len(payload)))
}

// errStopWalk ends a ServeTail segment walk once maxFrames frames have
// been written; it never escapes.
var errStopWalk = errors.New("stop walk")

// ServeTail answers one follower poll by writing a replication stream to
// w: the stream header, then — when compaction already folded the
// follower's resume point into a snapshot — one snapshot record, then
// every durable frame from the resume point on, then the clean end
// marker. from is the next sequence the follower wants (its replica's
// NextSeq); 0 means from the beginning. maxFrames caps frames per
// response (<= 0 unlimited); the follower simply polls again.
//
// ServeTail syncs the log first and reads each segment file only up to
// the size that sync made durable, so every frame served is durable on
// the source — bytes a racing append has flushed but not yet fsynced are
// left for a later poll. Frames are read back from the segment files,
// the same bytes recovery would see, and every one is CRC-checked on the
// way out. A damaged frame ends the response early but still cleanly.
//
// The cost of a poll is its new frames, not the log: the Log keeps one
// cursor where the last walk stopped, and a call resuming at or past it
// in the same segment reads from there. Any other call (a follower
// restart, a catch-up from an older seq, a segment rotated or compacted
// away) walks its first segment from the start and leaves a fresh cursor
// behind, so a long catch-up is linear too. One cursor is enough because
// a log has one follower (replica topology is fixed at boot); a second
// reader is still served correctly, it just pays the walk.
func (l *Log) ServeTail(w io.Writer, from uint64, maxFrames int) (sent int, err error) {
	if from == 0 {
		from = 1
	}
	l.mu.Lock()
	if !l.closed {
		if err := l.syncLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	snapSeq, next, cur := l.snapSeq, l.nextSeq, l.tail
	segs := append(slices.Clone(l.sealed), l.active)
	l.mu.Unlock()
	if from > next {
		return 0, fmt.Errorf("%w: follower at seq %d, source at %d", ErrTailAhead, from, next)
	}
	buf := AppendReplHeader(nil)
	resume := from
	if snapSeq >= from {
		covered, _, image, err := latestSnapshot(l.opt.Dir)
		if err != nil {
			return 0, err
		}
		if image == nil || covered < from {
			return 0, fmt.Errorf("durable: snapshot covering seq %d vanished", from)
		}
		buf = AppendReplSnapshot(buf, covered, image)
		resume = covered + 1
	}
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	var read uint64
	defer func() {
		l.mu.Lock()
		l.tail = cur
		l.stats.TailReadBytes += read
		l.mu.Unlock()
	}()
	for _, seg := range segs {
		if seg.last < resume {
			continue // fully below the resume point
		}
		startSeq, off := seg.first, int64(segHeaderLen)
		if cur.first == seg.first && cur.next <= resume {
			startSeq, off = cur.next, cur.off
		}
		b, damage, err := readSegment(seg.path, seg.first, off, seg.bytes)
		if err != nil {
			return sent, err
		}
		if damage != nil {
			break
		}
		read += uint64(segHeaderLen + len(b))
		frames, valid, damage, walkErr := walkBytes(b, startSeq, off, func(seq uint64, payload []byte) error {
			if seq < resume {
				return nil
			}
			if maxFrames > 0 && sent >= maxFrames {
				return errStopWalk
			}
			buf = AppendReplFrame(buf[:0], seq, payload)
			if _, err := w.Write(buf); err != nil {
				return err
			}
			sent++
			return nil
		})
		// The cursor only ever crosses frames this walk validated; a frame
		// the cap stopped at is where the next poll starts.
		cur = tailCursor{first: seg.first, next: startSeq + uint64(frames), off: valid}
		if walkErr != nil && !errors.Is(walkErr, errStopWalk) {
			return sent, walkErr
		}
		// Damage or the frame cap both end the response early; the
		// follower picks the rest up next poll.
		if damage != nil || walkErr != nil {
			break
		}
	}
	if _, err := w.Write(AppendReplEnd(buf[:0])); err != nil {
		return sent, err
	}
	return sent, nil
}

// WriteSnapshot atomically writes a snapshot file covering seqs
// [1,covered] into dir — the follower side of snapshot catch-up: wipe
// the stale replica directory, write the received image, reopen.
func WriteSnapshot(dir string, covered uint64, image []byte) error {
	_, err := writeSnapshotFile(dir, covered, image)
	return err
}
