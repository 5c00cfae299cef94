package durable

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"tlsfof/internal/stats"
)

// tailCall is one ServeTail call's observable result.
type tailCall struct {
	out  []byte
	sent int
	err  string
}

func callTail(l *Log, from uint64, maxFrames int) tailCall {
	var buf bytes.Buffer
	sent, err := l.ServeTail(&buf, from, maxFrames)
	c := tailCall{out: buf.Bytes(), sent: sent}
	if err != nil {
		c.err = err.Error()
	}
	return c
}

// TestTailCursorChangesCostNeverBytes: the cursor a long-lived Log keeps
// between ServeTail calls may only change what a call costs. Over a log
// with many rotations, a compaction, appends between polls and finally
// a torn frame after its tail, every call — sequential, repeated,
// backwards, across a rotation, into the snapshot, at the head, ahead of
// the log — must produce exactly what a freshly opened Log (no cursor)
// over a copy of the same directory produces.
func TestTailCursorChangesCostNeverBytes(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(420, 31)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch(ms[:120]); err != nil {
		t.Fatal(err)
	}
	if info, err := l.Checkpoint(); err != nil || info.LastSeq != 120 {
		t.Fatalf("checkpoint: %+v, %v", info, err)
	}
	if err := l.AppendBatch(ms[120:300]); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Rotations < 5 || st.SnapshotSeq != 120 {
		t.Fatalf("fixture too plain: %+v", st)
	}
	appended := 300

	r := stats.NewRNG(77)
	var prev struct {
		from uint64
		sent int
	}
	check := func(step int) {
		t.Helper()
		next := l.NextSeq()
		var from uint64
		switch r.Intn(7) {
		case 0: // sequential: exactly where the last call stopped
			from = prev.from + uint64(prev.sent)
		case 1: // the same poll again
			from = prev.from
		case 2: // backwards
			from = uint64(r.Intn(int(prev.from) + 1))
		case 3: // inside the snapshot
			from = uint64(r.Intn(121))
		case 4: // the head of the log
			from = next
		case 5: // ahead of the log
			from = next + 1 + uint64(r.Intn(3))
		default: // anywhere, so most land past a rotation
			from = uint64(r.Intn(int(next) + 1))
		}
		maxFrames := []int{0, 1, 7, 40, 1000}[r.Intn(5)]
		got := callTail(l, from, maxFrames)

		fresh, err := Open(testOptions(cloneDir(t, dir)))
		if err != nil {
			t.Fatal(err)
		}
		want := callTail(fresh, from, maxFrames)
		fresh.Close()
		if got.sent != want.sent || got.err != want.err || !bytes.Equal(got.out, want.out) {
			t.Fatalf("step %d: ServeTail(from=%d, max=%d) with a cursor: sent %d, err %q, %d bytes; without: sent %d, err %q, %d bytes",
				step, from, maxFrames, got.sent, got.err, len(got.out), want.sent, want.err, len(want.out))
		}
		if got.err == "" {
			prev.from, prev.sent = max(from, 1), got.sent
		}
	}
	for step := 0; step < 120; step++ {
		check(step)
		if step%10 == 9 && appended < len(ms) {
			if err := l.AppendBatch(ms[appended : appended+12]); err != nil {
				t.Fatal(err)
			}
			appended += 12
		}
	}

	// A torn final frame: a header promising 64 bytes followed by 3. The
	// long-lived log never syncs those bytes, so it must not serve or trip
	// on them; a fresh Open repairs them away.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for step := 120; step < 180; step++ {
		check(step)
	}
}

// headPollBytes builds a one-segment log of behind frames, walks a
// follower to its head, appends fresh more frames, and returns how many
// segment bytes the head poll read and how many the new frames occupy.
func headPollBytes(t *testing.T, behind, fresh int) (read, appended uint64) {
	t.Helper()
	l, err := Open(Options{Dir: t.TempDir(), SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch(syntheticMeasurements(behind, 41)); err != nil {
		t.Fatal(err)
	}
	if sent, err := l.ServeTail(io.Discard, 1, 0); err != nil || sent != behind {
		t.Fatalf("catch-up served %d of %d frames: %v", sent, behind, err)
	}
	before := l.Stats()
	if err := l.AppendBatch(syntheticMeasurements(fresh, 42)); err != nil {
		t.Fatal(err)
	}
	if sent, err := l.ServeTail(io.Discard, uint64(behind)+1, 0); err != nil || sent != fresh {
		t.Fatalf("head poll served %d of %d frames: %v", sent, fresh, err)
	}
	after := l.Stats()
	return after.TailReadBytes - before.TailReadBytes, after.AppendedBytes - before.AppendedBytes
}

// TestTailHeadPollReadsOnlyNewFrames: a follower on the cursor pays for
// the frames it has not seen plus one segment header, however long the
// log behind it is.
func TestTailHeadPollReadsOnlyNewFrames(t *testing.T) {
	const fresh = 25
	var reads []uint64
	for _, behind := range []int{200, 20000} {
		read, appended := headPollBytes(t, behind, fresh)
		if read > appended+segHeaderLen {
			t.Errorf("%d frames behind the head: poll read %d bytes for %d bytes of new frames", behind, read, appended)
		}
		reads = append(reads, read)
	}
	if reads[0] != reads[1] {
		t.Errorf("head poll cost depends on log length: %d bytes at 200 frames, %d at 20000", reads[0], reads[1])
	}
}

// TestTailUnreadableSegmentIsAnError: a segment that cannot be read at
// all is an error to the caller (recovery refuses to boot over it), not
// frame damage to be repaired or skipped.
func TestTailUnreadableSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	if err := os.Mkdir(seg, 0o777); err != nil {
		t.Fatal(err)
	}
	if _, _, damage, err := walkFrames(seg, 1, nil); err == nil {
		t.Fatalf("walkFrames over a directory: damage %v, want an error", damage)
	}
	if _, err := Open(testOptions(dir)); err == nil {
		t.Fatal("Open over an unreadable segment succeeded")
	}
}

// BenchmarkServeTailHead times one head-of-log poll — 32 new frames —
// with 1 k and with 100 k frames behind it. The pin: the fastest poll of
// the long log is within 2x of the short log's (plus a 20 us floor for
// timer noise). A ServeTail that re-reads the segment fails it by two
// orders of magnitude.
func BenchmarkServeTailHead(b *testing.B) {
	const fresh = 32
	best := map[int]time.Duration{}
	for _, behind := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("behind=%d", behind), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), SyncEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			base := syntheticMeasurements(1000, 43)
			for n := 0; n < behind; n += len(base) {
				if err := l.AppendBatch(base); err != nil {
					b.Fatal(err)
				}
			}
			from := uint64(behind) + 1
			if sent, err := l.ServeTail(io.Discard, 1, 0); err != nil || sent != behind {
				b.Fatalf("catch-up served %d of %d frames: %v", sent, behind, err)
			}
			batch := base[:fresh]
			fastest := time.Duration(1 << 62)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				sent, err := l.ServeTail(io.Discard, from, 0)
				fastest = min(fastest, time.Since(start))
				if err != nil || sent != fresh {
					b.Fatalf("head poll served %d of %d frames: %v", sent, fresh, err)
				}
				from += fresh
			}
			b.ReportMetric(float64(fastest.Nanoseconds()), "min-ns/poll")
			if prev, ok := best[behind]; !ok || fastest < prev {
				best[behind] = fastest
			}
		})
	}
	if short, long := best[1_000], best[100_000]; short > 0 && long > 2*short+20*time.Microsecond {
		b.Errorf("head poll 100k frames behind: %v, 1k frames behind: %v — more than 2x apart", long, short)
	}
}
