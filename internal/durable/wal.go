package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
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
//	snap-<covered:016x>.snap  snapshot: store image of seqs [1,covered]
//
//	segment header = magic "TFWD" | version 2 | firstSeq uint64le
//	frame          = payloadLen uint32le | crc32c(payload) uint32le | payload
//	payload        = one batch (core.Batch): the rows of one commit
//
// Sequence numbers are implicit and number frames: frame i of a segment
// holds seq firstSeq+i, so a seq names a batch, not a measurement. CRCs
// use the Castagnoli polynomial. A frame is valid only if its length is
// in bounds, fully present, its CRC matches and its batch decodes; the
// first invalid byte ends the usable log — everything after is the
// damaged tail a crash (or torn write) left behind. A segment whose
// header is complete and carries the magic but another version is not
// damage: it was written by another build, and reading it is refused.
const (
	segMagic     = "TFWD"
	snapMagic    = "TFSN"
	segVersion   = 2
	snapVersion  = 1
	segHeaderLen = 4 + 1 + 8
	frameHdrLen  = 4 + 4
	// snapHeaderLen is magic | version | covered uint64le |
	// len(image) uint32le | crc32c(image) uint32le.
	snapHeaderLen = 4 + 1 + 8 + 4 + 4
	// MaxFramePayload bounds one frame's batch; anything larger in a
	// length field is damage, not data. A commit that encodes larger is
	// split into frames that each fit.
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
	scratch     []byte     // one commit's encoded frames, back to back
	frameEnds   []int      // scratch offset just past each frame
	enc         core.Batch // AppendBatch's encoding of its measurements
	check       core.Batch // the check every frame passes before it is written
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

// Open reads opt.Dir the one way every path does (see scan), repairs
// what lies past the end of the usable log, and returns a log appending
// after its last frame — so Open resumes exactly where Recover stops.
func Open(opt Options) (*Log, error) {
	l, _, err := open(opt, false)
	return l, err
}

// open is Open returning the reading it booted from; with build set that
// reading also replayed the log into a store (see OpenShards).
func open(opt Options, build bool) (*Log, *dirScan, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("durable: Options.Dir required")
	}
	if err := os.MkdirAll(opt.Dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	s, err := scan(opt.Dir, math.MaxUint64, build)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{opt: opt, snapSeq: s.info.SnapshotSeq, snapBytes: s.snapBytes, nextSeq: s.info.LastSeq + 1}
	if err := l.repair(s); err != nil {
		return nil, nil, err
	}
	l.sealed = s.segs[:s.usable:s.usable]

	// Continue the last surviving segment if it has room; otherwise start
	// a fresh one.
	if n := len(l.sealed); n > 0 && l.sealed[n-1].bytes < opt.SegmentBytes && l.sealed[n-1].last+1 == l.nextSeq {
		seg := l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		l.f, l.active = f, seg
	} else if err := l.newSegmentLocked(); err != nil {
		return nil, nil, err
	}
	if l.w == nil {
		l.w = bufio.NewWriterSize(l.f, 1<<16)
	}
	if opt.SyncEvery > 0 {
		l.stopSyncer = make(chan struct{})
		l.syncerDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, s, nil
}

// repair sets aside what a reading found past the end of the usable log.
// A crash only tears the tail, but a reading cannot tell that from
// mid-log bit rot whose later segments still hold valid fsynced frames —
// so nothing is deleted: a torn segment's damaged bytes are preserved as
// <segment>.damaged before it is truncated back to its valid prefix, and
// every segment file past the damage point is renamed *.damaged
// (invisible to the next reading, kept for forensics or manual salvage).
func (l *Log) repair(s *dirScan) error {
	if s.torn {
		seg := s.segs[s.usable-1]
		if b, err := os.ReadFile(seg.path); err == nil && int64(len(b)) > seg.bytes {
			if err := os.WriteFile(seg.path+".damaged", b[seg.bytes:], 0o666); err != nil {
				return fmt.Errorf("durable: preserving damaged tail of %s: %w", seg.path, err)
			}
			l.repairBytes += int64(len(b)) - seg.bytes
		}
		if err := os.Truncate(seg.path, seg.bytes); err != nil {
			return fmt.Errorf("durable: repairing %s: %w", seg.path, err)
		}
	}
	for _, seg := range s.segs[s.usable:] {
		if err := os.Rename(seg.path, seg.path+".damaged"); err != nil {
			return fmt.Errorf("durable: setting aside %s: %w", seg.path, err)
		}
		l.droppedSegs++
	}
	return nil
}

// newSegmentLocked opens a fresh active segment starting at nextSeq and
// writes its header. Caller holds no file open (or has closed it).
func (l *Log) newSegmentLocked() error {
	path := filepath.Join(l.opt.Dir, fmt.Sprintf("wal-%016x.log", l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(appendSegHeader(nil, l.nextSeq)); err != nil {
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

// appendSegHeader appends a segment header whose first frame is seq
// first: the head of every segment file and of every tail stream.
func appendSegHeader(dst []byte, first uint64) []byte {
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion)
	return binary.LittleEndian.AppendUint64(dst, first)
}

// AppendBatch writes ms as one batch frame (more when it exceeds a
// frame's bounds, see commit) under one lock acquisition.
func (l *Log) AppendBatch(ms []core.Measurement) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc.Reset(0, 0)
	for i := range ms {
		l.enc.Add(&ms[i])
	}
	_, err := l.commitLocked(&l.enc, false)
	return err
}

// commit is the shard engine's WAL half (see Shard.Commit): frame b
// under one lock acquisition, fsync when the caller's policy (sync) says
// so, and return the last sequence number written. b is one frame unless
// it holds more than core.MaxBatchRows rows or encodes to more than
// MaxFramePayload bytes; then its rows are halved until every part fits,
// each part a self-contained batch frame with b's IDs. Every frame is
// encoded, size-checked and decoded back before the first byte reaches
// the writer, so an unframable measurement fails the commit with nothing
// written; a write, rotation or fsync error can still leave a prefix of
// the frames written. Each frame is atomic under a crash; a commit split
// into several is not — recovery may keep a prefix of its frames.
func (l *Log) commit(b *core.Batch, sync bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(b, sync)
}

func (l *Log) commitLocked(b *core.Batch, sync bool) (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("durable: append on closed log")
	}
	l.scratch, l.frameEnds = l.scratch[:0], l.frameEnds[:0]
	if len(b.Rows) > 0 {
		if err := l.appendFrames(b); err != nil {
			return 0, err
		}
	}
	start := 0
	for _, end := range l.frameEnds {
		if _, err := l.w.Write(l.scratch[start:end]); err != nil {
			return 0, fmt.Errorf("durable: %w", err)
		}
		if err := l.appendedFrameLocked(int64(end - start)); err != nil {
			return 0, err
		}
		start = end
	}
	if len(l.frameEnds) > 0 {
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

// appendFrames appends b to the commit's scratch as WAL frames: one
// frame when b fits, otherwise the frames of its two halves,
// recursively. Every frame is decoded back before it counts, so a frame
// recovery would refuse is never written.
func (l *Log) appendFrames(b *core.Batch) error {
	start := len(l.scratch)
	if len(b.Rows) <= core.MaxBatchRows {
		l.scratch = b.AppendTo(append(l.scratch, 0, 0, 0, 0, 0, 0, 0, 0)) // frame header placeholder
		payload := l.scratch[start+frameHdrLen:]
		if len(payload) <= MaxFramePayload {
			if err := l.check.Check(payload); err != nil {
				l.scratch = l.scratch[:start]
				return fmt.Errorf("durable: measurement encodes to an unreadable frame: %w", err)
			}
			binary.LittleEndian.PutUint32(l.scratch[start:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(l.scratch[start+4:], crc32.Checksum(payload, crcTable))
			l.frameEnds = append(l.frameEnds, len(l.scratch))
			return nil
		}
		l.scratch = l.scratch[:start]
		if len(b.Rows) == 1 {
			return fmt.Errorf("durable: measurement encodes to %d bytes (max %d)", len(payload), MaxFramePayload)
		}
	}
	var halves [2]core.Batch
	b.Halve(&halves[0], &halves[1])
	for i := range halves {
		if err := l.appendFrames(&halves[i]); err != nil {
			return err
		}
	}
	return nil
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
// fresh one, making the sealed segment eligible for a Checkpoint. An empty
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
// remains valid for Recover or a later Open.
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

// segment and snapshot directory listing ----------------------------------

type snapshotRef struct {
	path    string
	covered uint64
}

// listDir lists a log directory's segment and snapshot files, each in
// sequence order; names that do not parse belong to someone else. A
// directory that was never created lists as empty.
func listDir(dir string) (segs []segmentRef, snaps []snapshotRef, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if first, ok := seqName(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, segmentRef{path: path, first: first})
		} else if covered, ok := seqName(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, snapshotRef{path: path, covered: covered})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].covered < snaps[j].covered })
	return segs, snaps, nil
}

// seqName parses the hex sequence number of a prefix<seq>suffix name.
func seqName(name, prefix, suffix string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if hex, ok = strings.CutSuffix(hex, suffix); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

// readSnapshotFile validates framing and CRC and returns the store image
// payload plus the covered seq.
func readSnapshotFile(path string) (payload []byte, covered uint64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	if len(b) < snapHeaderLen || string(b[:4]) != snapMagic || b[4] != snapVersion {
		return nil, 0, fmt.Errorf("durable: %s: bad snapshot header", path)
	}
	covered = binary.LittleEndian.Uint64(b[5:])
	n := binary.LittleEndian.Uint32(b[13:])
	crc := binary.LittleEndian.Uint32(b[17:])
	if uint64(len(b)-snapHeaderLen) != uint64(n) {
		return nil, 0, fmt.Errorf("durable: %s: snapshot length mismatch", path)
	}
	payload = b[snapHeaderLen:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, fmt.Errorf("durable: %s: snapshot CRC mismatch", path)
	}
	return payload, covered, nil
}

// writeSnapshotFile atomically writes a snapshot covering seqs
// [1,covered]: tmp file, fsync, rename, directory fsync — only then may
// callers delete the segments it covers.
func writeSnapshotFile(dir string, covered uint64, image []byte) error {
	path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", covered))
	tmp := path + ".tmp"
	b := make([]byte, snapHeaderLen, snapHeaderLen+len(image))
	copy(b, snapMagic)
	b[4] = snapVersion
	binary.LittleEndian.PutUint64(b[5:], covered)
	binary.LittleEndian.PutUint32(b[13:], uint32(len(image)))
	binary.LittleEndian.PutUint32(b[17:], crc32.Checksum(image, crcTable))
	b = append(b, image...)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: syncing %s: %w", dir, err)
	}
	return nil
}

// walkFrames scans one segment from its first frame, calling fn with
// each valid frame's seq and payload. It returns the frame
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
// damage; a file that cannot be opened or read, or a complete header of
// another format version, is an err.
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
	} else if n == segHeaderLen && string(hdr[:4]) == segMagic && hdr[4] != segVersion {
		return nil, nil, fmt.Errorf("durable: %s: segment format version %d, this build reads version %d", path, hdr[4], segVersion)
	} else if n < segHeaderLen || string(hdr[:4]) != segMagic || binary.LittleEndian.Uint64(hdr[5:]) != first {
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
		if err := fn(seq, payload); err != nil {
			return frames, off, nil, err
		}
		frames++
		seq++
		off += int64(frameHdrLen + int(n))
		rest = rest[frameHdrLen+int(n):]
	}
	return frames, off, nil, nil
}
