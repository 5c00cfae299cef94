package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlsfof/internal/core"
)

// On-disk layout. A log directory holds size-rotated segment files plus
// at most a handful of snapshot files:
//
//	wal-<firstSeq:016x>.log   segment: header, then CRC-framed records
//	snap-<covered:016x>.snap  snapshot: aggregate image of seqs [1,covered]
//
//	segment header = magic "TFWD" | version 1 | firstSeq uint64le
//	frame          = payloadLen uint32le | crc32c(payload) uint32le | payload
//	payload        = one core.Measurement (internal/core binary codec)
//
// Sequence numbers are implicit: frame i of a segment holds seq
// firstSeq+i. CRCs use the Castagnoli polynomial. A frame is valid only
// if its length is in bounds, fully present, and its CRC matches; the
// first invalid byte ends the usable log — everything after is the
// damaged tail a crash (or torn write) left behind.
const (
	segMagic     = "TFWD"
	snapMagic    = "TFSN"
	formatVer    = 1
	segHeaderLen = 4 + 1 + 8
	frameHdrLen  = 4 + 4
	// MaxFramePayload bounds one encoded measurement; anything larger in
	// a length field is damage, not data.
	MaxFramePayload = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a log directory. The zero value of every field gets
// a sensible default; Dir is required.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentBytes is the rotation threshold for the active segment
	// (default 64 MiB). Small values are useful in tests to force many
	// segments.
	SegmentBytes int64
	// SyncEvery is the background fsync cadence (default 200ms). The
	// appender itself never fsyncs (durability stays off the ingest hot
	// path); a negative value disables the background syncer entirely
	// (Sync/Rotate/Close still fsync).
	SyncEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 200 * time.Millisecond
	}
	return o
}

// Stats is a point-in-time snapshot of one log's accounting, shaped for
// the /metrics endpoint.
type Stats struct {
	Segments       int    `json:"segments"`
	WALBytes       int64  `json:"wal_bytes"`
	ActiveBytes    int64  `json:"active_bytes"`
	LastSeq        uint64 `json:"last_seq"`
	SnapshotSeq    uint64 `json:"snapshot_seq"`
	SnapshotBytes  int64  `json:"snapshot_bytes"`
	AppendedFrames uint64 `json:"appended_frames"`
	AppendedBytes  uint64 `json:"appended_bytes"`
	// GroupAppends and GroupedBatches: no group commit exists — every
	// AppendBatch counts as a group of one, so their ratio is always 1.
	// Kept only because bench/server.go names them (and requires its
	// durable.group_size, which divides them, to be emitted); remove in
	// the next benchmark PR.
	GroupAppends    uint64 `json:"group_appends,omitempty"`
	GroupedBatches  uint64 `json:"grouped_batches,omitempty"`
	Fsyncs          uint64 `json:"fsyncs"`
	Rotations       uint64 `json:"rotations"`
	Compactions     uint64 `json:"compactions"`
	RepairedBytes   int64  `json:"repaired_bytes,omitempty"`
	DroppedSegments int    `json:"dropped_segments,omitempty"`
	// TailReadBytes is segment bytes ServeTail has read. A follower on the
	// tail cursor costs its new frames plus one segment header per poll; a
	// figure growing faster than AppendedBytes is a follower that keeps
	// falling back to a walk from the segment start.
	TailReadBytes uint64 `json:"tail_read_bytes,omitempty"`
}

type segmentRef struct {
	path  string
	first uint64
	// last is the final seq the segment holds (first-1 when empty).
	last  uint64
	bytes int64
}

// tailCursor is where the last ServeTail walk stopped: the frame holding
// seq next starts at byte off of the segment whose first seq is first.
// Segments are append-only and a first seq is never reused, so a cursor
// stays valid for the life of the Log; every byte below off was
// CRC-checked by the walk that left it.
type tailCursor struct {
	first, next uint64
	off         int64
}

// Log is an open, appendable measurement WAL. All methods are safe for
// concurrent use; appends from multiple goroutines serialize on one
// internal lock, preserving each producer's own order.
type Log struct {
	opt Options

	mu          sync.Mutex
	f           *os.File
	w           *bufio.Writer
	active      segmentRef
	sealed      []segmentRef
	nextSeq     uint64
	dirty       bool
	closed      bool
	scratch     []byte
	snapSeq     uint64
	snapBytes   int64
	tail        tailCursor
	stats       Stats
	compactMu   sync.Mutex
	stopSyncer  chan struct{}
	syncerDone  chan struct{}
	syncErr     error
	repairBytes int64
	droppedSegs int
}

// Open scans dir, repairs any damaged tail a crash left (truncating the
// first damaged segment at the damage point and setting aside
// unreachable later segments as *.damaged), and returns a log appending
// after the last surviving frame. The scan CRC-walks every segment;
// callers that Recover and then Open the same directory pay that walk
// twice, which compaction keeps cheap (sealed frames fold into the
// snapshot, and a cleanly shut down log is a snapshot plus an empty or
// absent tail).
func Open(opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir required")
	}
	if err := os.MkdirAll(opt.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	snapSeq, snapBytes, _, err := latestSnapshot(opt.Dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(opt.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opt: opt, snapSeq: snapSeq, snapBytes: snapBytes}
	next := snapSeq + 1
	for i, seg := range segs {
		frames, validBytes, damage, err := walkFrames(seg.path, seg.first, nil)
		if err != nil {
			return nil, err
		}
		if damage != nil {
			// Damage ends the usable log: recovery can never replay past
			// it, and appends must continue from the surviving prefix. A
			// crash only tears the tail, but Open cannot distinguish that
			// from mid-log bit rot whose later segments still hold valid
			// fsynced frames — so nothing is deleted. The damaged bytes
			// are set aside as *.damaged (invisible to the segment scan,
			// preserved for forensics or manual salvage) and the log
			// resumes at the damage point.
			fi, _ := os.Stat(seg.path)
			if fi != nil {
				l.repairBytes += fi.Size() - validBytes
			}
			if validBytes < segHeaderLen {
				// Not even the header survived: set aside the whole file.
				if err := setAsideDamaged(seg.path); err != nil {
					return nil, err
				}
				l.droppedSegs++
			} else {
				// Preserve the damaged tail bytes before truncating the
				// live segment back to its valid prefix.
				if b, rerr := os.ReadFile(seg.path); rerr == nil && int64(len(b)) > validBytes {
					if err := os.WriteFile(seg.path+".damaged", b[validBytes:], 0o666); err != nil {
						return nil, fmt.Errorf("durable: preserving damaged tail of %s: %w", seg.path, err)
					}
				}
				if err := os.Truncate(seg.path, validBytes); err != nil {
					return nil, fmt.Errorf("durable: repairing %s: %w", seg.path, err)
				}
				seg.last = seg.first + uint64(frames) - 1
				seg.bytes = validBytes
				l.sealed = append(l.sealed, seg)
				next = seg.first + uint64(frames)
			}
			for _, later := range segs[i+1:] {
				if err := setAsideDamaged(later.path); err != nil {
					return nil, err
				}
				l.droppedSegs++
			}
			break
		}
		seg.last = seg.first + uint64(frames) - 1
		seg.bytes = validBytes
		l.sealed = append(l.sealed, seg)
		if end := seg.first + uint64(frames); end > next {
			next = end
		}
	}
	l.nextSeq = next

	// Continue the last surviving segment if it has room; otherwise start
	// a fresh one.
	if n := len(l.sealed); n > 0 && l.sealed[n-1].bytes < opt.SegmentBytes && l.sealed[n-1].last+1 == next {
		seg := l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		l.f, l.active = f, seg
	} else if err := l.newSegmentLocked(); err != nil {
		return nil, err
	}
	if l.w == nil {
		l.w = bufio.NewWriterSize(l.f, 1<<16)
	}
	if opt.SyncEvery > 0 {
		l.stopSyncer = make(chan struct{})
		l.syncerDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// newSegmentLocked opens a fresh active segment starting at nextSeq and
// writes its header. Caller holds no file open (or has closed it).
func (l *Log) newSegmentLocked() error {
	path := filepath.Join(l.opt.Dir, fmt.Sprintf("wal-%016x.log", l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	hdr[4] = formatVer
	binary.LittleEndian.PutUint64(hdr[5:], l.nextSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	l.f = f
	l.active = segmentRef{path: path, first: l.nextSeq, last: l.nextSeq - 1, bytes: segHeaderLen}
	if l.w == nil {
		l.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		l.w.Reset(f)
	}
	return nil
}

// Append writes one measurement frame. The frame is buffered; durability
// follows the configured fsync policy.
func (l *Log) Append(m core.Measurement) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendFrameLocked(m)
}

// AppendBatch writes a batch under one lock acquisition.
func (l *Log) AppendBatch(ms []core.Measurement) error {
	_, err := l.commit(ms, false)
	return err
}

// commit is the shard engine's WAL half (see Shard.Commit): frame ms
// under one lock acquisition, fsync when the caller's policy (sync) says
// so, and return the last sequence number written. An error leaves a
// prefix of ms framed.
func (l *Log) commit(ms []core.Measurement, sync bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range ms {
		if err := l.appendFrameLocked(m); err != nil {
			return 0, err
		}
	}
	if len(ms) > 0 {
		l.stats.GroupAppends++
		l.stats.GroupedBatches++
	}
	if sync {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return l.nextSeq - 1, nil
}

// appendFrameLocked encodes and buffers one frame plus its bookkeeping
// and size-triggered rotation; fsync policy is the caller's.
func (l *Log) appendFrameLocked(m core.Measurement) error {
	if l.closed {
		return fmt.Errorf("durable: append on closed log")
	}
	l.scratch = l.scratch[:0]
	l.scratch = append(l.scratch, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	l.scratch = core.AppendMeasurement(l.scratch, m)
	payload := l.scratch[frameHdrLen:]
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("durable: measurement encodes to %d bytes (max %d)", len(payload), MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(l.scratch[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.scratch[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(l.scratch); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return l.appendedFrameLocked(int64(len(l.scratch)))
}

// appendedFrameLocked is the fsync-free post-write bookkeeping:
// frameBytes is the full on-disk frame size (header plus payload) just
// written to the buffered writer.
func (l *Log) appendedFrameLocked(frameBytes int64) error {
	l.active.last = l.nextSeq
	l.active.bytes += frameBytes
	l.nextSeq++
	l.dirty = true
	l.stats.AppendedFrames++
	l.stats.AppendedBytes += uint64(frameBytes)
	if l.active.bytes >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes buffered frames and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	l.dirty = false
	l.stats.Fsyncs++
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncerDone)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.syncLocked(); err != nil && l.syncErr == nil {
					l.syncErr = err
				}
			}
			l.mu.Unlock()
		case <-l.stopSyncer:
			return
		}
	}
}

// Rotate seals the active segment (flush + fsync + close) and starts a
// fresh one, making the sealed segment eligible for Compact. An empty
// active segment is left alone.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: rotate on closed log")
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if l.active.last < l.active.first {
		return nil // nothing appended yet
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	l.sealed = append(l.sealed, l.active)
	l.stats.Rotations++
	return l.newSegmentLocked()
}

// Close stops the background syncer, flushes and fsyncs outstanding
// frames, and closes the active segment. It is idempotent; the directory
// remains valid for Recover, Snapshot, or a later Open.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.stopSyncer != nil {
		close(l.stopSyncer)
		<-l.syncerDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.syncErr
	}
	return err
}

// Stats returns a point-in-time accounting snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.sealed) + 1
	s.ActiveBytes = l.active.bytes
	s.WALBytes = l.active.bytes
	for _, seg := range l.sealed {
		s.WALBytes += seg.bytes
	}
	s.LastSeq = l.nextSeq - 1
	s.SnapshotSeq = l.snapSeq
	s.SnapshotBytes = l.snapBytes
	s.RepairedBytes = l.repairBytes
	s.DroppedSegments = l.droppedSegs
	return s
}

// setAsideDamaged renames a segment out of the scanned namespace instead
// of deleting it: the frames it holds are unreachable by recovery (they
// sit past a damage point), but they are real fsynced data and the
// operator may want them.
func setAsideDamaged(path string) error {
	if err := os.Rename(path, path+".damaged"); err != nil {
		return fmt.Errorf("durable: setting aside %s: %w", path, err)
	}
	return nil
}

// segment and snapshot directory scanning ---------------------------------

func listSegments(dir string) ([]segmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var segs []segmentRef
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segmentRef{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

type snapshotRef struct {
	path    string
	covered uint64
}

func listSnapshots(dir string) ([]snapshotRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var snaps []snapshotRef
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		covered, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapshotRef{path: filepath.Join(dir, name), covered: covered})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].covered < snaps[j].covered })
	return snaps, nil
}

// latestSnapshot returns the covered seq and size of the newest snapshot
// whose CRC verifies (0 when none). The payload is returned so callers
// that need the store can decode without a second read.
func latestSnapshot(dir string) (covered uint64, size int64, payload []byte, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		p, c, err := readSnapshotFile(snaps[i].path)
		if err != nil {
			continue // corrupt snapshot: fall back to an older one
		}
		fi, _ := os.Stat(snaps[i].path)
		var sz int64
		if fi != nil {
			sz = fi.Size()
		}
		return c, sz, p, nil
	}
	return 0, 0, nil, nil
}

// readSnapshotFile validates framing and CRC and returns the store image
// payload plus the covered seq.
func readSnapshotFile(path string) (payload []byte, covered uint64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	const hdr = 4 + 1 + 8 + 4 + 4
	if len(b) < hdr || string(b[:4]) != snapMagic || b[4] != formatVer {
		return nil, 0, fmt.Errorf("durable: %s: bad snapshot header", path)
	}
	covered = binary.LittleEndian.Uint64(b[5:])
	n := binary.LittleEndian.Uint32(b[13:])
	crc := binary.LittleEndian.Uint32(b[17:])
	if uint64(len(b)-hdr) != uint64(n) {
		return nil, 0, fmt.Errorf("durable: %s: snapshot length mismatch", path)
	}
	payload = b[hdr:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, fmt.Errorf("durable: %s: snapshot CRC mismatch", path)
	}
	return payload, covered, nil
}

// writeSnapshotFile atomically writes a snapshot covering seqs
// [1,covered]: tmp file, fsync, rename, directory fsync — only then may
// callers delete the segments it covers.
func writeSnapshotFile(dir string, covered uint64, image []byte) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", covered))
	tmp := path + ".tmp"
	const hdr = 4 + 1 + 8 + 4 + 4
	b := make([]byte, hdr, hdr+len(image))
	copy(b, snapMagic)
	b[4] = formatVer
	binary.LittleEndian.PutUint64(b[5:], covered)
	binary.LittleEndian.PutUint32(b[13:], uint32(len(image)))
	binary.LittleEndian.PutUint32(b[17:], crc32.Checksum(image, crcTable))
	b = append(b, image...)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return "", fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return "", fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("durable: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return path, nil
}

// walkFrames scans one segment from its first frame, calling fn (when
// non-nil) with each valid frame's seq and payload. It returns the frame
// count, the byte offset just past the last valid frame, and damage
// describing why the walk stopped early (nil for a clean end). Payloads
// passed to fn alias the file buffer and are only valid during the call.
func walkFrames(path string, first uint64, fn func(seq uint64, payload []byte) error) (frames int, validBytes int64, damage error, err error) {
	b, damage, err := readSegment(path, first, segHeaderLen, -1)
	if err != nil || damage != nil {
		return 0, 0, damage, err
	}
	return walkBytes(b, first, segHeaderLen, fn)
}

// readSegment opens one segment, checks its header, and returns its
// bytes from offset off up to offset end (the file's size when end < 0)
// in one buffer of exactly that size. A header that is short or wrong is
// damage; a file that cannot be opened or read is an err.
func readSegment(path string, first uint64, off, end int64) (b []byte, damage error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	if end < 0 {
		fi, err := f.Stat()
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		end = fi.Size()
	}
	var hdr [segHeaderLen]byte
	if n, err := f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		return nil, nil, fmt.Errorf("durable: %w", err)
	} else if n < segHeaderLen || string(hdr[:4]) != segMagic || hdr[4] != formatVer ||
		binary.LittleEndian.Uint64(hdr[5:]) != first {
		return nil, fmt.Errorf("bad segment header"), nil
	}
	if end <= off {
		return nil, nil, nil
	}
	b = make([]byte, end-off)
	n, err := f.ReadAt(b, off)
	if err != nil && err != io.EOF {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	return b[:n], nil, nil
}

// walkBytes is walkFrames over bytes already read: b starts at byte
// offset off of its segment, on the frame holding seq.
func walkBytes(b []byte, seq uint64, off int64, fn func(seq uint64, payload []byte) error) (frames int, validBytes int64, damage error, err error) {
	rest := b
	for len(rest) > 0 {
		if len(rest) < frameHdrLen {
			return frames, off, fmt.Errorf("torn frame header at offset %d", off), nil
		}
		n := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > MaxFramePayload {
			return frames, off, fmt.Errorf("frame length %d out of bounds at offset %d", n, off), nil
		}
		if uint64(len(rest)-frameHdrLen) < uint64(n) {
			return frames, off, fmt.Errorf("torn frame payload at offset %d", off), nil
		}
		payload := rest[frameHdrLen : frameHdrLen+int(n)]
		if crc32.Checksum(payload, crcTable) != crc {
			return frames, off, fmt.Errorf("frame CRC mismatch at offset %d", off), nil
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return frames, off, nil, err
			}
		}
		frames++
		seq++
		off += int64(frameHdrLen + int(n))
		rest = rest[frameHdrLen+int(n):]
	}
	return frames, off, nil, nil
}
