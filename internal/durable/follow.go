package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ErrTailAhead reports a follower asking for a sequence the source has
// never written — the replica belongs to a different incarnation of the
// log (an operator wiped or replaced the source directory). Replication
// must not silently continue: the follower's watermark would race ahead
// of data that was never copied.
var ErrTailAhead = errors.New("durable: follower is ahead of source log")

// ErrTailCompacted reports a follower asking for a sequence a snapshot
// already covers: its frames are gone from the WAL, and the replication
// stream carries frames only. A cluster log never compacts, so a replica
// of one never sees this.
var ErrTailCompacted = errors.New("durable: follower's resume point was compacted into a snapshot")

// NextSeq returns the sequence the next appended frame will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// AppendEncoded appends one encoded batch frame — the exact bytes a
// replication frame carried — as the next frame, without a re-encode, so
// a replica log is byte-identical to its source. The batch is checked
// first, without materializing a string, so a replica directory is
// always recoverable.
func (l *Log) AppendEncoded(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFramePayload {
		return fmt.Errorf("durable: encoded payload %d bytes out of bounds", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: append on closed log")
	}
	if err := l.check.decode(payload, false); err != nil {
		return fmt.Errorf("durable: encoded payload: %w", err)
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

// CheckTail reports whether ServeTail can stream from seq from (0 means
// 1): ErrTailAhead past the end of the log, ErrTailCompacted at or below
// its snapshot, nil otherwise.
func (l *Log) CheckTail(from uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkTailLocked(max(from, 1))
}

func (l *Log) checkTailLocked(from uint64) error {
	if from > l.nextSeq {
		return fmt.Errorf("%w: follower at seq %d, source at %d", ErrTailAhead, from, l.nextSeq)
	}
	if from <= l.snapSeq {
		return fmt.Errorf("%w: follower at seq %d, snapshot covers %d", ErrTailCompacted, from, l.snapSeq)
	}
	return nil
}

// ServeTail answers one follower poll by writing a replication stream to
// w: the stream header, every durable frame from the resume point on,
// then the clean end marker. from is the next sequence the follower
// wants (its replica's NextSeq); 0 means from the beginning. maxFrames
// caps frames per response (<= 0 unlimited); the follower simply polls
// again. A from that CheckTail refuses is refused here too, before any
// byte is written.
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
	from = max(from, 1)
	l.mu.Lock()
	err = l.checkTailLocked(from)
	if err == nil && !l.closed {
		err = l.syncLocked()
	}
	cur := l.tail
	segs := append(slices.Clone(l.sealed), l.active)
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	buf := AppendReplHeader(nil)
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
		if seg.last < from {
			continue // fully below the resume point
		}
		startSeq, off := seg.first, int64(segHeaderLen)
		if cur.first == seg.first && cur.next <= from {
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
			if seq < from {
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
