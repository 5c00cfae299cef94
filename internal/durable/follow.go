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
// stream carries frames only. A cluster node with a replica peer
// compacts its own logs only below that follower's watermark, so a
// follower sees this only after losing its replica directory.
var ErrTailCompacted = errors.New("durable: follower's resume point was compacted into a snapshot")

// NextSeq returns the sequence the next appended frame will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// errStopWalk ends a ServeTail segment walk at its maxFrames cap; it
// never escapes.
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

// ServeTail answers one follower poll by writing a tail stream to w
// (DESIGN.md §12):
//
//	stream = segment header (first seq = from) | frame* | end
//	end    = 8 zero bytes: a frame header of length 0, which no frame has
//
// Each frame is the source segment's bytes, copied verbatim, so the
// stream is the log itself and Log.AppendTail applies it by appending
// what it reads. The end marker tells a complete response from a
// connection cut between frames. from is the next sequence the follower
// wants (its replica's NextSeq); 0 means from the beginning. maxFrames
// caps frames per response (<= 0 unlimited); the follower simply polls
// again. A from that CheckTail refuses is refused here too, before any
// byte is written. sent counts the frames written.
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
	if _, err := w.Write(appendSegHeader(nil, from)); err != nil {
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
		skip := 0 // bytes of b below from
		frames, valid, damage, capped := walkBytes(b, startSeq, off, func(seq uint64, payload []byte) error {
			if seq < from {
				skip += frameHdrLen + len(payload)
				return nil
			}
			if maxFrames > 0 && sent >= maxFrames {
				return errStopWalk
			}
			sent++
			return nil
		})
		// The cursor only ever crosses frames this walk validated; a frame
		// the cap stopped at is where the next poll starts.
		cur = tailCursor{first: seg.first, next: startSeq + uint64(frames), off: valid}
		if end := int(valid - off); end > skip {
			if _, err := w.Write(b[skip:end]); err != nil {
				return sent, err
			}
		}
		// Damage or the frame cap both end the response early; the
		// follower picks the rest up next poll.
		if damage != nil || capped != nil {
			break
		}
	}
	if _, err := w.Write(tailEnd[:]); err != nil {
		return sent, err
	}
	return sent, nil
}

// tailEnd ends a tail stream.
var tailEnd [frameHdrLen]byte

// ErrReplTruncated reports a tail stream that ended before its end
// marker — a connection cut or a torn response. The frames AppendTail
// applied before the cut are intact: each passed its CRC and batch check.
var ErrReplTruncated = fmt.Errorf("durable: replication stream truncated: %w", io.ErrUnexpectedEOF)

// AppendTail applies one tail stream (see ServeTail) read from r: the
// stream's first seq must be the log's NextSeq, and each frame, once its
// CRC and its batch check pass, is appended unchanged as the next frame,
// so a replica log is byte-identical to its source. The log lock is held
// per frame, never across a read of r. It returns the frames applied; a
// stream that ends before its end marker is ErrReplTruncated, and any
// error keeps the frames applied before it. The caller syncs.
func (l *Log) AppendTail(r io.Reader) (applied int, err error) {
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, truncated(err)
	}
	if string(hdr[:4]) != segMagic || hdr[4] != segVersion {
		return 0, fmt.Errorf("durable: tail stream header %q, want %q version %d", hdr[:5], segMagic, segVersion)
	}
	next := l.NextSeq()
	if first := binary.LittleEndian.Uint64(hdr[5:]); first != next {
		return 0, fmt.Errorf("durable: tail stream starts at seq %d, log at %d", first, next)
	}
	var fh [frameHdrLen]byte
	var frame []byte
	for ; ; applied++ {
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			return applied, truncated(err)
		}
		if fh == tailEnd {
			return applied, nil
		}
		n := binary.LittleEndian.Uint32(fh[:])
		if n == 0 || n > MaxFramePayload {
			return applied, fmt.Errorf("durable: tail frame length %d out of bounds at seq %d", n, next)
		}
		size := frameHdrLen + int(n)
		if cap(frame) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		copy(frame, fh[:])
		if _, err := io.ReadFull(r, frame[frameHdrLen:]); err != nil {
			return applied, truncated(err)
		}
		if crc32.Checksum(frame[frameHdrLen:], crcTable) != binary.LittleEndian.Uint32(fh[4:]) {
			return applied, fmt.Errorf("durable: tail frame CRC mismatch at seq %d", next)
		}
		if err := l.appendFrame(next, frame); err != nil {
			return applied, err
		}
		next++
	}
}

// appendFrame appends one whole frame (header and payload) as seq, once
// its batch decodes, so a replica directory is always recoverable.
func (l *Log) appendFrame(seq uint64, frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: append on closed log")
	}
	if l.nextSeq != seq {
		return fmt.Errorf("durable: tail frame for seq %d, log at %d", seq, l.nextSeq)
	}
	if err := l.check.Check(frame[frameHdrLen:]); err != nil {
		return fmt.Errorf("durable: tail frame at seq %d: %w", seq, err)
	}
	if _, err := l.w.Write(frame); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return l.appendedFrameLocked(int64(len(frame)))
}

// truncated maps a physical end of stream onto ErrReplTruncated; other
// read errors pass through.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrReplTruncated
	}
	return err
}
