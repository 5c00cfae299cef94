package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"tlsfof/internal/core"
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

// applyStream is the follower-side application a cluster node performs,
// over a byte stream instead of an HTTP response: snapshot records reset
// the replica directory, frame records append in sequence, duplicates
// are skipped, gaps stop the apply. It returns the reopened (or same)
// replica log and whether the stream ended cleanly.
func applyStream(t *testing.T, dir string, l *Log, stream []byte) (*Log, bool) {
	t.Helper()
	dec := NewReplDecoder(bytes.NewReader(stream))
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			return l, true
		}
		if errors.Is(err, ErrReplTruncated) {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			return l, false
		}
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case ReplSnapshot:
			if rec.Seq < l.NextSeq() {
				continue // already have everything it covers
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o777); err != nil {
				t.Fatal(err)
			}
			if err := WriteSnapshot(dir, rec.Seq, rec.Payload); err != nil {
				t.Fatal(err)
			}
			nl, err := Open(testOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			l = nl
		case ReplFrame:
			switch {
			case rec.Seq < l.NextSeq():
				// duplicate from an overlapping poll
			case rec.Seq == l.NextSeq():
				if err := l.AppendEncoded(rec.Payload); err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatalf("gap: got seq %d, replica at %d", rec.Seq, l.NextSeq())
			}
		}
	}
}

func recoverRender(t *testing.T, dir string) string {
	t.Helper()
	db, _, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	return renderTables(t, db)
}

func TestReplRecordRoundTrip(t *testing.T) {
	ms := syntheticMeasurements(5, 11)
	img := ingestPrefix(ms, 3).AppendSnapshot(nil)
	var payloads [][]byte
	stream := AppendReplHeader(nil)
	stream = AppendReplSnapshot(stream, 3, img)
	for i, m := range ms[3:] {
		p := core.AppendMeasurement(nil, m)
		payloads = append(payloads, p)
		stream = AppendReplFrame(stream, uint64(4+i), p)
	}
	stream = AppendReplEnd(stream)

	// Streaming decoder.
	dec := NewReplDecoder(bytes.NewReader(stream))
	rec, err := dec.Next()
	if err != nil || rec.Type != ReplSnapshot || rec.Seq != 3 || !bytes.Equal(rec.Payload, img) {
		t.Fatalf("snapshot record: %+v, %v", rec, err)
	}
	for i, want := range payloads {
		rec, err := dec.Next()
		if err != nil || rec.Type != ReplFrame || rec.Seq != uint64(4+i) || !bytes.Equal(rec.Payload, want) {
			t.Fatalf("frame %d: %+v, %v", i, rec, err)
		}
	}
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF, got %v", err)
	}
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF must be sticky, got %v", err)
	}
}

// TestReplDecoderRejectsDamage pins the decoder's verdict per kind of
// damage: a stream cut inside any field is ErrReplTruncated, and bad
// magic, an unknown record type, a length outside the wire bounds and a
// payload that fails its CRC are each refused by name — never decoded.
func TestReplDecoderRejectsDamage(t *testing.T) {
	payload := core.AppendMeasurement(nil, syntheticMeasurements(1, 12)[0])
	frame := AppendReplFrame(AppendReplHeader(nil), 7, payload)
	good := AppendReplEnd(append([]byte(nil), frame...))
	flipped := append([]byte(nil), good...)
	flipped[len(frame)-1] ^= 0x40 // last payload byte

	first := func(stream []byte) error {
		_, err := NewReplDecoder(bytes.NewReader(stream)).Next()
		return err
	}
	if err := first(good); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	// Every cut short of the whole frame — magic, type byte, seq, length,
	// CRC, payload — is truncation.
	for cut := 0; cut < len(frame); cut++ {
		if err := first(good[:cut]); !errors.Is(err, ErrReplTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrReplTruncated", cut, len(frame), err)
		}
	}
	for _, tc := range []struct {
		name, want string
		stream     []byte
	}{
		{"bad magic", "magic", []byte("TFR0E")},
		{"unknown type", "unknown", []byte("TFR1X")},
		{"zero length", "out of bounds", []byte("TFR1F\x01\x00")},
		{"oversized frame", "out of bounds", []byte("TFR1F\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")},
		{"oversized snapshot", "out of bounds", []byte("TFR1S\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")},
		{"flipped payload byte", "CRC mismatch", flipped},
	} {
		err := first(tc.stream)
		if err == nil || errors.Is(err, ErrReplTruncated) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
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

	// First poll: everything from scratch.
	if err := src.AppendBatch(ms[:70]); err != nil {
		t.Fatal(err)
	}
	rep, ok := applyStream(t, repDir, rep, serveTail(t, src, rep.NextSeq(), 0))
	if !ok || rep.NextSeq() != 71 {
		t.Fatalf("replica at seq %d (clean=%v), want 71", rep.NextSeq()-1, ok)
	}

	// Incremental poll only ships the delta.
	if err := src.AppendBatch(ms[70:]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sent, err := src.ServeTail(&buf, rep.NextSeq(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 50 {
		t.Fatalf("incremental poll served %d frames, want 50", sent)
	}
	rep, ok = applyStream(t, repDir, rep, buf.Bytes())
	if !ok {
		t.Fatal("incremental stream did not end cleanly")
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
	if err := src.AppendBatch(syntheticMeasurements(90, 13)); err != nil {
		t.Fatal(err)
	}
	polls := 0
	for rep.NextSeq() < src.NextSeq() {
		rep, _ = applyStream(t, repDir, rep, serveTail(t, src, rep.NextSeq(), 7))
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
}

func TestReplSnapshotCatchUp(t *testing.T) {
	srcDir, repDir := t.TempDir(), t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	ms := syntheticMeasurements(100, 14)
	if err := src.AppendBatch(ms[:60]); err != nil {
		t.Fatal(err)
	}
	// Checkpoint folds the first 60 frames into a snapshot and deletes
	// their segments: a fresh follower can no longer stream them frame by
	// frame and must take the snapshot path.
	if _, err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendBatch(ms[60:]); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(testOptions(repDir))
	if err != nil {
		t.Fatal(err)
	}
	stream := serveTail(t, src, rep.NextSeq(), 0)
	dec := NewReplDecoder(bytes.NewReader(stream))
	first, err := dec.Next()
	if err != nil || first.Type != ReplSnapshot {
		t.Fatalf("first record after compaction should be a snapshot, got %+v, %v", first, err)
	}
	rep, ok := applyStream(t, repDir, rep, stream)
	if !ok || rep.NextSeq() != src.NextSeq() {
		t.Fatalf("replica at %d, source at %d (clean=%v)", rep.NextSeq(), src.NextSeq(), ok)
	}
	src.Close()
	rep.Close()
	// Recovery on the replica must pick snapshot + replicated tail.
	db, info, err := Recover(testOptions(repDir))
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 60 || info.Replayed != 40 || info.LastSeq != 100 {
		t.Fatalf("replica recovery picked wrong snapshot/tail split: %+v", info)
	}
	if got, want := renderTables(t, db), recoverRender(t, srcDir); got != want {
		t.Fatal("snapshot catch-up replica renders differently")
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
// matrix: a tail response cut at every byte offset (a killed source, a
// dropped connection, a torn read) must decode to an intact prefix —
// never a partial or corrupt record — and a single re-poll from the
// replica's own durable position must converge byte-identically.
func TestReplTornStreamMatrix(t *testing.T) {
	srcDir := t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	ms := syntheticMeasurements(30, 16)
	if err := src.AppendBatch(ms); err != nil {
		t.Fatal(err)
	}
	stream := serveTail(t, src, 0, 0)
	want := recoverRender(t, srcDir)

	// Sample cuts densely at the head (header and first records) and at
	// every frame-ish stride after, keeping the matrix fast.
	offsets := map[int]bool{}
	for off := 0; off < len(stream); off += 1 + off/16 {
		offsets[off] = true
	}
	offsets[len(stream)-1] = true
	for off := range offsets {
		rep, err := Open(testOptions(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		repDir := rep.opt.Dir
		rep, clean := applyStream(t, repDir, rep, stream[:off])
		if clean {
			t.Fatalf("cut at %d/%d decoded as a clean stream", off, len(stream))
		}
		// Every frame applied before the cut is durable; one clean re-poll
		// finishes the job.
		rep, clean = applyStream(t, repDir, rep, serveTail(t, src, rep.NextSeq(), 0))
		if !clean {
			t.Fatalf("re-poll after cut at %d did not end cleanly", off)
		}
		rep.Close()
		if got := recoverRender(t, repDir); got != want {
			t.Fatalf("cut at %d: replica diverged after re-poll", off)
		}
	}
	src.Close()
}

// TestReplCorruptStreamMatrix flips seeded bytes across the stream (the
// same primitive faultnet's wire corruption uses) and asserts the
// decoder either rejects the stream or only ever emits payloads that are
// byte-identical to real source records — corruption must never reach a
// replica silently.
func TestReplCorruptStreamMatrix(t *testing.T) {
	srcDir := t.TempDir()
	src, err := Open(testOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AppendBatch(syntheticMeasurements(25, 17)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendBatch(syntheticMeasurements(10, 18)); err != nil {
		t.Fatal(err)
	}
	pristine := serveTail(t, src, 0, 0)
	src.Close()

	valid := map[string]bool{}
	dec := NewReplDecoder(bytes.NewReader(pristine))
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		valid[string(rec.Payload)] = true
	}

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
		d := NewReplDecoder(bytes.NewReader(stream))
		for {
			rec, err := d.Next()
			if err != nil {
				break // rejection (CRC, bounds, magic, truncation) is a pass
			}
			if rec.Type == ReplEnd {
				continue
			}
			if !valid[string(rec.Payload)] {
				t.Fatalf("trial %d (every=%d mask=%02x): corrupted payload passed CRC", trial, every, mask)
			}
		}
	}
}

// FuzzDecodeReplFrame drives the replication decoder over arbitrary
// bytes: it must terminate with a clean EOF or an explicit error,
// never panic, and never emit a record whose length fields escape the
// wire bounds. Seeds come from a real served tail.
func FuzzDecodeReplFrame(f *testing.F) {
	srcDir := f.TempDir()
	src, err := Open(Options{Dir: srcDir, SegmentBytes: 2 << 10, SyncEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := src.AppendBatch(syntheticMeasurements(12, 19)); err != nil {
		f.Fatal(err)
	}
	if _, err := src.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := src.AppendBatch(syntheticMeasurements(6, 20)); err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if _, err := src.ServeTail(&real, 0, 0); err != nil {
		f.Fatal(err)
	}
	src.Close()
	seed := real.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)-1])      // end marker gone: truncation
	f.Add(seed[:len(seed)/2])      // cut mid-record
	f.Add([]byte("TFR1E"))         // empty clean stream
	f.Add([]byte("TFR1"))          // header only: truncated
	f.Add([]byte("TFR0E"))         // wrong magic
	f.Add([]byte("TFR1F\x01\x00")) // zero-length frame
	// Hostile lengths: huge frame, huge snapshot.
	f.Add([]byte("TFR1F\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("TFR1S\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		dec := NewReplDecoder(bytes.NewReader(stream))
		records := 0
		for {
			rec, err := dec.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				break // explicit rejection is a pass
			}
			switch rec.Type {
			case ReplFrame:
				if len(rec.Payload) == 0 || len(rec.Payload) > MaxFramePayload {
					t.Fatalf("frame payload %d bytes escaped bounds", len(rec.Payload))
				}
			case ReplSnapshot:
				if len(rec.Payload) == 0 || len(rec.Payload) > MaxReplSnapshot {
					t.Fatalf("snapshot image %d bytes escaped bounds", len(rec.Payload))
				}
			default:
				t.Fatalf("decoder emitted unknown record type %#x", rec.Type)
			}
			if records++; records > 1<<14 {
				t.Fatalf("unbounded record stream from %d input bytes", len(stream))
			}
		}
	})
}
