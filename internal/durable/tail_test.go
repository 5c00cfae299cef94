package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsfof/internal/faultnet"
	"tlsfof/internal/stats"
)

// serveTail captures one ServeTail response as bytes.
func serveTail(t *testing.T, l *Log, from uint64, maxFrames int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.ServeTail(&buf, from, maxFrames); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyTail applies stream to l through AppendTail and syncs what it
// appended, as a follower's poll does.
func applyTail(t *testing.T, l *Log, stream []byte) (int, error) {
	t.Helper()
	applied, err := l.AppendTail(bytes.NewReader(stream))
	if serr := l.Sync(); serr != nil {
		t.Fatal(serr)
	}
	return applied, err
}

// mustApplyTail applies a stream that must apply to its end marker.
func mustApplyTail(t *testing.T, l *Log, stream []byte) int {
	t.Helper()
	applied, err := applyTail(t, l, stream)
	if err != nil {
		t.Fatalf("tail stream did not apply cleanly after %d frames: %v", applied, err)
	}
	return applied
}

func recoverRender(t *testing.T, dir string) string {
	t.Helper()
	db, _, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	return renderTables(t, db)
}

// walFiles reads every segment file of dir, by name.
func walFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = b
	}
	return files
}

// frameOffsets returns src's tail stream from seq 1 and where in it each
// frame starts, then where its end marker does. The tail from any later
// seq carries the same frame bytes, so its length places that frame.
func frameOffsets(t *testing.T, src *Log) (stream []byte, offs []int) {
	t.Helper()
	stream = serveTail(t, src, 1, 0)
	for seq := uint64(1); seq <= src.NextSeq(); seq++ {
		offs = append(offs, len(stream)-len(serveTail(t, src, seq, 0))+segHeaderLen)
	}
	return stream, offs
}

// TestTailStreamIsSegmentBytes: a tail stream is a segment header naming
// its first seq, the source segment's frame bytes as they are on disk,
// and an 8-byte zero end marker. From seq 1 of a one-segment log it is
// the segment file itself plus the marker.
func TestTailStreamIsSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	src, err := Open(Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	appendPer(t, src, syntheticMeasurements(40, 11), 4)
	stream := serveTail(t, src, 1, 0)
	seg := walFiles(t, dir)["wal-0000000000000001.log"]
	if want := append(append([]byte(nil), seg...), make([]byte, frameHdrLen)...); !bytes.Equal(stream, want) {
		t.Fatalf("tail from 1: %d bytes, want the %d-byte segment plus the end marker", len(stream), len(seg))
	}
	var from4 bytes.Buffer
	if sent, err := src.ServeTail(&from4, 4, 0); err != nil || sent != 7 {
		t.Fatalf("tail from 4: sent %d, %v; want 7 frames", sent, err)
	}
	if !bytes.HasPrefix(from4.Bytes(), appendSegHeader(nil, 4)) || !bytes.HasSuffix(stream, from4.Bytes()[segHeaderLen:]) {
		t.Fatal("tail from 4 is not the header for seq 4 plus the segment's bytes from frame 4 on")
	}
}

// TestAppendTailRejectsDamage pins AppendTail's verdict per kind of
// damage: a stream cut anywhere short of its end marker is
// ErrReplTruncated, and a bad header, a frame length outside the bounds,
// a payload that fails its CRC, a CRC-valid frame whose batch does not
// decode and a stream that does not start at the replica's NextSeq are
// each refused by name, with nothing appended.
func TestAppendTailRejectsDamage(t *testing.T) {
	src, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.AppendBatch(syntheticMeasurements(3, 12)); err != nil {
		t.Fatal(err)
	}
	good := serveTail(t, src, 1, 0)
	frameEnd := len(good) - frameHdrLen
	with := func(at int, b ...byte) []byte {
		s := append([]byte(nil), good...)
		copy(s[at:], b)
		return s
	}
	flipped := with(frameEnd-1, good[frameEnd-1]^0x40) // last payload byte
	// A frame whose CRC holds over a payload that is not a batch.
	garbage := appendSegHeader(nil, 1)
	garbage = binary.LittleEndian.AppendUint32(garbage, 4)
	garbage = binary.LittleEndian.AppendUint32(garbage, crc32.Checksum([]byte("junk"), crcTable))
	garbage = append(append(garbage, "junk"...), make([]byte, frameHdrLen)...)

	fresh := func() *Log {
		rep, err := Open(testOptions(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		return rep
	}
	if n, err := applyTail(t, fresh(), good); n != 1 || err != nil {
		t.Fatalf("intact stream: %d frames, %v", n, err)
	}
	for cut := 0; cut < len(good); cut++ {
		rep := fresh()
		n, err := applyTail(t, rep, good[:cut])
		if !errors.Is(err, ErrReplTruncated) || n != min(1, cut/frameEnd) {
			t.Fatalf("cut at %d/%d: %d frames, err = %v; want ErrReplTruncated", cut, len(good), n, err)
		}
	}
	for _, tc := range []struct {
		name, want string
		stream     []byte
	}{
		{"bad magic", "header", with(0, 'X')},
		{"wrong version", "header", with(4, segVersion+1)},
		{"zero length, nonzero CRC", "out of bounds", with(segHeaderLen, 0, 0, 0, 0)},
		{"oversized frame", "out of bounds", with(segHeaderLen, 0xff, 0xff, 0xff, 0x7f)},
		{"flipped payload byte", "CRC mismatch", flipped},
		{"flipped frame CRC", "CRC mismatch", with(segHeaderLen+4, good[segHeaderLen+4]^1)},
		{"payload not a batch", "batch", garbage},
		{"first seq not the replica's NextSeq", "starts at seq", with(5, 2)},
	} {
		rep := fresh()
		n, err := applyTail(t, rep, tc.stream)
		if err == nil || errors.Is(err, ErrReplTruncated) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if n != 0 || rep.NextSeq() != 1 {
			t.Errorf("%s: %d frames applied, replica at seq %d; want nothing appended", tc.name, n, rep.NextSeq())
		}
	}
}

// hookReader runs fn on its first read and ends there, so an
// io.MultiReader runs fn between two parts of a stream.
type hookReader struct{ fn func() }

func (h *hookReader) Read([]byte) (int, error) {
	if h.fn != nil {
		h.fn()
		h.fn = nil
	}
	return 0, io.EOF
}

// TestAppendTailStopsAtAForeignAppend: a frame lands only at the seq the
// stream gives it. When another append takes that seq between two
// frames, AppendTail stops with an error instead of appending the
// source's frame at the next free seq.
func TestAppendTailStopsAtAForeignAppend(t *testing.T) {
	src, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	appendPer(t, src, syntheticMeasurements(4, 22), 2)
	stream, frameAt := frameOffsets(t, src)
	foreign := &hookReader{fn: func() {
		if err := rep.AppendBatch(syntheticMeasurements(1, 23)); err != nil {
			t.Error(err)
		}
	}}
	r := io.MultiReader(bytes.NewReader(stream[:frameAt[1]]), foreign, bytes.NewReader(stream[frameAt[1]:]))
	if n, err := rep.AppendTail(r); err == nil || n != 1 {
		t.Fatalf("applied %d frames, %v; want 1 and an error", n, err)
	}
	if rep.NextSeq() != 3 {
		t.Fatalf("replica at seq %d, want 2: the stream's first frame and the foreign one", rep.NextSeq()-1)
	}
}

func TestReplTailFollowConverges(t *testing.T) {
	srcDir, repDir := t.TempDir(), t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Open(testOptions(repDir))
	if err != nil {
		t.Fatal(err)
	}
	ms := syntheticMeasurements(120, 12)

	// First poll: everything from scratch, 7 frames of 10 measurements.
	appendPer(t, src, ms[:70], 10)
	if n := mustApplyTail(t, rep, serveTail(t, src, rep.NextSeq(), 0)); n != 7 || rep.NextSeq() != 8 {
		t.Fatalf("replica applied %d frames, at seq %d; want 7", n, rep.NextSeq()-1)
	}

	// Incremental poll only ships the delta.
	appendPer(t, src, ms[70:], 10)
	var buf bytes.Buffer
	sent, err := src.ServeTail(&buf, rep.NextSeq(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 5 {
		t.Fatalf("incremental poll served %d frames, want 5", sent)
	}
	if n := mustApplyTail(t, rep, buf.Bytes()); n != 5 {
		t.Fatalf("incremental poll applied %d frames, want 5", n)
	}

	// A caught-up poll serves nothing.
	if sent, err := src.ServeTail(io.Discard, rep.NextSeq(), 0); err != nil || sent != 0 {
		t.Fatalf("caught-up poll: sent=%d err=%v", sent, err)
	}

	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := recoverRender(t, repDir), recoverRender(t, srcDir); got != want {
		t.Fatal("replica recovers different tables from source")
	}
	if !maps.EqualFunc(walFiles(t, repDir), walFiles(t, srcDir), bytes.Equal) {
		t.Fatal("replica segment files differ from the source's")
	}
}

func TestReplTailFrameCapResumes(t *testing.T) {
	srcDir, repDir := t.TempDir(), t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Open(testOptions(repDir))
	if err != nil {
		t.Fatal(err)
	}
	appendPer(t, src, syntheticMeasurements(90, 13), 1)
	polls := 0
	for rep.NextSeq() < src.NextSeq() {
		if n := mustApplyTail(t, rep, serveTail(t, src, rep.NextSeq(), 7)); n > 7 {
			t.Fatalf("a 7-frame poll applied %d frames", n)
		}
		if polls++; polls > 90 {
			t.Fatal("capped polls never converged")
		}
	}
	if polls < 90/7 {
		t.Fatalf("converged in %d polls; the 7-frame cap was not honored", polls)
	}
	src.Close()
	rep.Close()
	if got, want := recoverRender(t, repDir), recoverRender(t, srcDir); got != want {
		t.Fatal("replica diverged under capped polls")
	}
	if !maps.EqualFunc(walFiles(t, repDir), walFiles(t, srcDir), bytes.Equal) {
		t.Fatal("replica segment files differ from the source's")
	}
}

// TestReplTailBelowSnapshotRefused: the stream carries frames only, so a
// follower whose resume point a snapshot already covers is refused by
// name before a single byte is written, never streamed past the hole the
// compaction left; the first seq after the snapshot still streams.
func TestReplTailBelowSnapshotRefused(t *testing.T) {
	src, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ms := syntheticMeasurements(100, 14)
	appendPer(t, src, ms[:60], 1)
	if _, err := src.Checkpoint(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	appendPer(t, src, ms[60:], 1)
	for _, from := range []uint64{0, 1, 60} {
		var buf bytes.Buffer
		if _, err := src.ServeTail(&buf, from, 0); !errors.Is(err, ErrTailCompacted) || buf.Len() != 0 {
			t.Fatalf("ServeTail from %d: err %v after %d bytes, want ErrTailCompacted before any", from, err, buf.Len())
		}
		if err := src.CheckTail(from); !errors.Is(err, ErrTailCompacted) {
			t.Fatalf("CheckTail(%d) = %v, want ErrTailCompacted", from, err)
		}
	}
	if err := src.CheckTail(61); err != nil {
		t.Fatalf("CheckTail(61) = %v, want nil", err)
	}
	if sent, err := src.ServeTail(io.Discard, 61, 0); err != nil || sent != 40 {
		t.Fatalf("ServeTail from 61: sent %d, %v; want the 40 frames after the snapshot", sent, err)
	}
}

func TestReplTailAheadRefused(t *testing.T) {
	src, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.AppendBatch(syntheticMeasurements(5, 15)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ServeTail(io.Discard, 99, 0); !errors.Is(err, ErrTailAhead) {
		t.Fatalf("want ErrTailAhead, got %v", err)
	}
}

// TestReplTornStreamMatrix is the replication-path arm of the crash
// matrix: a tail response cut at any offset — in the header, inside a
// frame, on a frame boundary, just before the end marker (a killed
// source, a dropped connection, a torn read) — is truncation, leaves the
// replica holding exactly the whole frames before the cut, and a single
// re-poll from the replica's own durable position converges to the
// source's segment bytes.
func TestReplTornStreamMatrix(t *testing.T) {
	srcDir := t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	appendPer(t, src, syntheticMeasurements(30, 16), 5)
	stream, frameAt := frameOffsets(t, src)
	want := walFiles(t, srcDir)

	// Sample cuts densely at the head (header and first frame) and at a
	// growing stride after, plus every frame boundary, keeping the matrix
	// fast.
	offsets := map[int]bool{}
	for off := 0; off < len(stream); off += 1 + off/16 {
		offsets[off] = true
	}
	for _, off := range frameAt {
		offsets[off], offsets[off+1] = true, true
	}
	offsets[len(stream)-1] = true
	for off := range offsets {
		repDir := t.TempDir()
		rep, err := Open(testOptions(repDir))
		if err != nil {
			t.Fatal(err)
		}
		whole := 0
		for whole < len(frameAt)-1 && frameAt[whole+1] <= off {
			whole++
		}
		if n, err := applyTail(t, rep, stream[:off]); !errors.Is(err, ErrReplTruncated) || n != whole {
			t.Fatalf("cut at %d/%d: %d frames, %v; want the %d whole frames and ErrReplTruncated", off, len(stream), n, err, whole)
		}
		// Every frame applied before the cut is durable; one clean re-poll
		// finishes the job.
		mustApplyTail(t, rep, serveTail(t, src, rep.NextSeq(), 0))
		rep.Close()
		if !maps.EqualFunc(walFiles(t, repDir), want, bytes.Equal) {
			t.Fatalf("cut at %d: replica segment files differ from the source's after the re-poll", off)
		}
	}
}

// TestReplCorruptStreamMatrix flips seeded bytes across the stream (the
// same primitive faultnet's wire corruption uses) and asserts AppendTail
// either refuses the damage or appends only frames byte-identical to the
// source's: every replica segment file stays a prefix of the source's
// file of that name. Corruption must never reach a replica.
func TestReplCorruptStreamMatrix(t *testing.T) {
	srcDir := t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	appendPer(t, src, syntheticMeasurements(25, 17), 5)
	appendPer(t, src, syntheticMeasurements(10, 18), 10)
	pristine := serveTail(t, src, 0, 0)
	src.Close()
	want := walFiles(t, srcDir)

	r := stats.NewRNG(0xD15EA5E)
	for trial := 0; trial < 64; trial++ {
		stream := append([]byte(nil), pristine...)
		every := 1 + r.Intn(len(stream)/2)
		mask := byte(r.Uint64())
		if mask == 0 {
			mask = 0x5A
		}
		if faultnet.CorruptEvery(stream, r.Intn(len(stream)), every, mask) == 0 {
			continue
		}
		repDir := t.TempDir()
		rep, err := Open(testOptions(repDir))
		if err != nil {
			t.Fatal(err)
		}
		applyTail(t, rep, stream) // refusal (CRC, bounds, header, truncation) is a pass
		rep.Close()
		for name, got := range walFiles(t, repDir) {
			if !bytes.HasPrefix(want[name], got) {
				t.Fatalf("trial %d (every=%d mask=%02x): replica %s is not a prefix of the source's", trial, every, mask, name)
			}
		}
	}
}

// FuzzAppendTail drives AppendTail over arbitrary bytes into a fresh
// replica: it must return, never panic, apply at most one frame per
// frame header the input holds, and append only frames that pass their
// CRC and batch check — so the replica recovers every frame it applied,
// with no damage. Seeds come from a real served tail.
func FuzzAppendTail(f *testing.F) {
	src, err := Open(Options{Dir: f.TempDir(), SegmentBytes: 2 << 10, SyncEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	appendPer(f, src, syntheticMeasurements(12, 19), 4)
	if err := src.AppendBatch(syntheticMeasurements(6, 20)); err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if _, err := src.ServeTail(&real, 0, 0); err != nil {
		f.Fatal(err)
	}
	src.Close()
	seed := real.Bytes()
	header := appendSegHeader(nil, 1)
	f.Add(seed)
	f.Add(seed[:len(seed)-1])                                                                  // end marker cut short
	f.Add(seed[:len(seed)-frameHdrLen])                                                        // end marker gone
	f.Add(seed[:len(seed)/2])                                                                  // cut mid-frame
	f.Add(seed[:segHeaderLen+3])                                                               // cut in the first frame header
	f.Add(header)                                                                              // header only
	f.Add([]byte{})                                                                            // nothing at all
	f.Add(append(appendSegHeader(nil, 1)[:4], 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)) // wrong version
	f.Add(append(append([]byte(nil), header...), make([]byte, frameHdrLen)...))                // zero-length only: empty and clean
	f.Add(append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4))          // hostile length
	f.Fuzz(func(t *testing.T, stream []byte) {
		dir := t.TempDir()
		rep, err := Open(Options{Dir: dir, SegmentBytes: 2 << 10, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		applied, _ := rep.AppendTail(bytes.NewReader(stream))
		if err := rep.Close(); err != nil {
			t.Fatal(err)
		}
		if applied > len(stream)/frameHdrLen {
			t.Fatalf("applied %d frames from %d input bytes", applied, len(stream))
		}
		_, info, err := Recover(Options{Dir: dir})
		if err != nil || info.DroppedTail || info.LastSeq != uint64(applied) {
			t.Fatalf("applied %d frames; the replica recovers %+v, %v", applied, info, err)
		}
	})
}
