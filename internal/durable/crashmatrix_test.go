package durable

// The crash matrix: for every frame boundary in a multi-segment WAL —
// plus torn writes inside every frame, and seeded single-byte corruption
// (internal/faultnet's corruption primitive applied to the file layer) —
// Recover must drop only the damaged tail and render every store-backed
// table byte-identical to a never-crashed run over the surviving prefix.
// This is the correctness contract of DESIGN.md §10: a crash can cost
// the non-durable tail, never the prefix, and never table fidelity.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tlsfof/internal/core"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/stats"
)

// frameSpan is one frame's byte range within a segment file.
type frameSpan struct {
	start, end int64 // [start, end): frame header + payload
}

// segLayout maps one segment file: its global first frame index (0-based
// over the whole log) and each frame's span.
type segLayout struct {
	path       string
	firstIndex int
	frames     []frameSpan
}

// layoutWAL scans a closed log directory into per-segment frame maps.
func layoutWAL(t *testing.T, dir string) []segLayout {
	t.Helper()
	segs, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []segLayout
	index := 0
	for _, seg := range segs {
		lay := segLayout{path: seg.path, firstIndex: index}
		off := int64(segHeaderLen)
		_, _, damage, err := walkFrames(seg.path, seg.first, func(_ uint64, payload []byte) error {
			end := off + int64(frameHdrLen+len(payload))
			lay.frames = append(lay.frames, frameSpan{start: off, end: end})
			off = end
			return nil
		})
		if err != nil || damage != nil {
			t.Fatalf("pristine WAL damaged: %v / %v", err, damage)
		}
		index += len(lay.frames)
		out = append(out, lay)
	}
	return out
}

// writeWAL writes ms through a Log (tiny segments force rotation) and
// returns the directory. checkpointAt > 0 checkpoints (rotate + compact
// into a snapshot) after that many appends, exercising snapshot + tail
// recovery under the same matrix.
func writeWAL(t *testing.T, ms []core.Measurement, checkpointAt int) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if err := l.AppendBatch(ms[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if checkpointAt > 0 && i+1 == checkpointAt {
			if _, err := l.Checkpoint(math.MaxUint64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// cloneDir copies every file of src into a fresh temp dir.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// crashCase is one cell of the matrix.
type crashCase struct {
	name string
	// mutate damages the cloned segment file.
	mutate func(t *testing.T, path string)
	// survive is the number of leading measurements recovery must keep.
	survive int
}

func runCrashCase(t *testing.T, pristine string, segPath string, c crashCase, renders *renderCache) {
	t.Helper()
	dir := cloneDir(t, pristine)
	c.mutate(t, filepath.Join(dir, filepath.Base(segPath)))
	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatalf("%s: recover: %v", c.name, err)
	}
	if got := int(info.LastSeq); got != c.survive {
		t.Fatalf("%s: recovered through seq %d, want %d (info %+v)", c.name, got, c.survive, info)
	}
	if got, want := renderTables(t, db), renders.prefix(t, c.survive); got != want {
		t.Fatalf("%s: tables differ from never-crashed run over first %d measurements", c.name, c.survive)
	}
	// One reading: a writer reopening the directory resumes exactly where
	// recovery stopped.
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("%s: open: %v", c.name, err)
	}
	defer l.Close()
	if got := l.NextSeq(); got != info.LastSeq+1 {
		t.Fatalf("%s: Open resumes at seq %d, Recover stopped at %d", c.name, got, info.LastSeq)
	}
}

// renderCache memoizes expected renders per surviving-prefix length.
type renderCache struct {
	ms      []core.Measurement
	renders map[int]string
}

func (rc *renderCache) prefix(t *testing.T, k int) string {
	if s, ok := rc.renders[k]; ok {
		return s
	}
	s := renderTables(t, ingestPrefix(rc.ms, k))
	rc.renders[k] = s
	return s
}

func truncateAt(off int64) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		if err := os.Truncate(path, off); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptSpan XORs one seeded byte inside [start,end) of the file, via
// the same primitive faultnet's wire-corruption scenario uses.
func corruptSpan(r *stats.RNG, start, end int64) func(*testing.T, string) {
	width := int(end - start)
	target := r.Intn(width)
	mask := byte(r.Uint64())
	if mask == 0 {
		mask = 0xA5
	}
	return func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Offset the window so the single stream position divisible by
		// len(window) is exactly `target`.
		window := b[start:end]
		if hit := faultnet.CorruptEvery(window, width-target-1, width, mask); hit != 1 {
			t.Fatalf("corrupted %d bytes, want exactly 1", hit)
		}
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

func runMatrix(t *testing.T, ms []core.Measurement, checkpointAt int) {
	pristine := writeWAL(t, ms, checkpointAt)
	layouts := layoutWAL(t, pristine)
	if len(layouts) < 2 {
		t.Fatalf("want a multi-segment WAL, got %d segment(s)", len(layouts))
	}
	renders := &renderCache{ms: ms, renders: map[int]string{}}
	r := stats.NewRNG(0xC0FFEE)

	// After a checkpoint the snapshot floor protects everything it
	// covers: damage inside surviving segments can never drop below the
	// segment's own start, and the snapshot keeps frames it covers even
	// when their original segments are gone.
	total := 0
	for _, lay := range layouts {
		total += len(lay.frames)
	}
	for _, lay := range layouts {
		// Truncation at every frame boundary (clean cut between frames),
		// including the bare header (zero frames survive in this file).
		// Cutting at a mid-WAL boundary leaves a gap, so recovery stops
		// there; cutting exactly at a segment's full size is a no-op and
		// everything must survive.
		for i := 0; i <= len(lay.frames); i++ {
			off := int64(segHeaderLen)
			if i > 0 {
				off = lay.frames[i-1].end
			}
			survive := lay.firstIndex + i
			if i == len(lay.frames) {
				survive = total
			}
			runCrashCase(t, pristine, lay.path, crashCase{
				name:    "truncate-boundary",
				mutate:  truncateAt(off),
				survive: survive,
			}, renders)
		}
		// Mid-frame torn writes: cut inside the frame header, inside the
		// payload, and one byte short of complete.
		for i, fr := range lay.frames {
			for _, off := range []int64{fr.start + 3, fr.start + frameHdrLen + (fr.end-fr.start-frameHdrLen)/2, fr.end - 1} {
				runCrashCase(t, pristine, lay.path, crashCase{
					name:    "torn-write",
					mutate:  truncateAt(off),
					survive: lay.firstIndex + i,
				}, renders)
			}
		}
		// Seeded corruption inside every frame: recovery keeps everything
		// before the damaged frame, drops it and the tail behind it.
		for i, fr := range lay.frames {
			runCrashCase(t, pristine, lay.path, crashCase{
				name:    "corrupt-frame",
				mutate:  corruptSpan(r, fr.start, fr.end),
				survive: lay.firstIndex + i,
			}, renders)
		}
		// Segment header corruption: the whole file (and everything after
		// it) is the damaged tail.
		runCrashCase(t, pristine, lay.path, crashCase{
			name:    "corrupt-header",
			mutate:  corruptSpan(r, 0, segHeaderLen),
			survive: lay.firstIndex,
		}, renders)
	}
}

func TestCrashMatrix(t *testing.T) {
	runMatrix(t, syntheticMeasurements(110, 0xBEEF), 0)
}

func TestCrashMatrixWithSnapshot(t *testing.T) {
	// Checkpoint at 40: recovery always starts from the snapshot, then
	// replays the damaged tail segments. Frame indexes in the layouts are
	// relative to the WAL tail, so shift by the snapshot floor.
	ms := syntheticMeasurements(110, 0xF00D)
	const floor = 40
	pristine := writeWAL(t, ms, floor)
	layouts := layoutWAL(t, pristine)
	renders := &renderCache{ms: ms, renders: map[int]string{}}
	r := stats.NewRNG(0xDECAF)
	total := 0
	for _, lay := range layouts {
		total += len(lay.frames)
	}
	for _, lay := range layouts {
		for i := 0; i <= len(lay.frames); i++ {
			off := int64(segHeaderLen)
			if i > 0 {
				off = lay.frames[i-1].end
			}
			survive := floor + lay.firstIndex + i
			if i == len(lay.frames) {
				survive = floor + total
			}
			runCrashCase(t, pristine, lay.path, crashCase{
				name:    "snap-truncate-boundary",
				mutate:  truncateAt(off),
				survive: survive,
			}, renders)
		}
		for i, fr := range lay.frames {
			runCrashCase(t, pristine, lay.path, crashCase{
				name:    "snap-corrupt-frame",
				mutate:  corruptSpan(r, fr.start, fr.end),
				survive: floor + lay.firstIndex + i,
			}, renders)
		}
	}
}

func TestCorruptSnapshotIsDetected(t *testing.T) {
	// A corrupt snapshot fails CRC validation; with the covered segments
	// compacted away the best recovery can do is detect the gap and
	// surface it, not silently serve a partial store.
	ms := syntheticMeasurements(60, 0xABCD)
	pristine := writeWAL(t, ms, 30)
	_, snaps, err := listDir(pristine)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d (%v)", len(snaps), err)
	}
	b, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(snaps[0].path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	db, info, err := Recover(testOptions(pristine))
	if err != nil {
		t.Fatal(err)
	}
	if !info.DroppedTail {
		t.Fatalf("recovery over a corrupt snapshot must report the gap: %+v", info)
	}
	if db.Totals().Tested != 0 {
		t.Fatalf("gap recovery served %d measurements as if complete", db.Totals().Tested)
	}
}

// TestCrashMatrixCommitAtomicity: a commit is one frame, so a crash
// inside it costs the whole commit and nothing before it. Three commits
// of 30 measurements, then the log cut at every byte offset inside the
// third commit's frame: recovery gives exactly the first two commits'
// store — its canonical snapshot bytes and every table — never part of
// the third, and a reopened log resumes after the second.
func TestCrashMatrixCommitAtomicity(t *testing.T) {
	ms := syntheticMeasurements(90, 0xA70C)
	pristine := t.TempDir()
	l, err := Open(Options{Dir: pristine, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendPer(t, l, ms, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	layouts := layoutWAL(t, pristine)
	if len(layouts) != 1 || len(layouts[0].frames) != 3 {
		t.Fatalf("want one segment of 3 frames, got %d segment(s)", len(layouts))
	}
	want := ingestPrefix(ms, 60)
	wantSnap, wantTables := want.AppendSnapshot(nil), renderTables(t, want)
	third := layouts[0].frames[2]
	for off := third.start; off < third.end; off++ {
		dir := cloneDir(t, pristine)
		truncateAt(off)(t, filepath.Join(dir, filepath.Base(layouts[0].path)))
		db, info, err := Recover(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if info.LastSeq != 2 || info.Replayed != 60 {
			t.Fatalf("cut at %d: recovered %+v, want 2 frames of 60 measurements", off, info)
		}
		if !bytes.Equal(db.AppendSnapshot(nil), wantSnap) || renderTables(t, db) != wantTables {
			t.Fatalf("cut at %d: recovered store differs from the first two commits'", off)
		}
		l, err := Open(Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", off, err)
		}
		if got := l.NextSeq(); got != 3 {
			t.Fatalf("cut at %d: Open resumes at seq %d, want 3", off, got)
		}
		l.Close()
	}
}

// TestCommitSplitsOversizedBatch: a commit past one frame's bounds —
// more than core.MaxBatchRows rows here — is written as several frames, each
// a batch that fits MaxFramePayload and decodes on its own, holding
// consecutive rows of the commit. Recovering all of them gives the whole
// commit. A split commit is atomic per frame only: a crash inside its
// second frame keeps exactly the rows of its first.
func TestCommitSplitsOversizedBatch(t *testing.T) {
	ms := syntheticMeasurements(core.MaxBatchRows+5000, 0x5B17)
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %d (%v)", len(segs), err)
	}
	var frames []frameSpan
	var rows []int
	off := int64(segHeaderLen)
	if _, _, damage, err := walkFrames(segs[0].path, segs[0].first, func(_ uint64, payload []byte) error {
		var b core.Batch
		if err := b.Decode(payload); err != nil {
			return err
		}
		frames = append(frames, frameSpan{start: off, end: off + int64(frameHdrLen+len(payload))})
		rows = append(rows, len(b.Rows))
		off = frames[len(frames)-1].end
		return nil
	}); err != nil || damage != nil {
		t.Fatalf("split commit does not read back: %v / %v", err, damage)
	}
	if len(frames) < 2 {
		t.Fatalf("a %d-row commit wrote %d frame(s)", len(ms), len(frames))
	}
	db, info, err := Recover(Options{Dir: dir})
	if err != nil || info.DroppedTail || info.Replayed != len(ms) || int(info.LastSeq) != len(frames) {
		t.Fatalf("recovered %+v, %v; want %d measurements in %d frames", info, err, len(ms), len(frames))
	}
	if renderTables(t, db) != renderTables(t, ingestPrefix(ms, len(ms))) {
		t.Fatal("recovered split commit renders differently from the commit")
	}
	truncateAt((frames[1].start+frames[1].end)/2)(t, segs[0].path)
	db, info, err = Recover(Options{Dir: dir})
	if err != nil || info.LastSeq != 1 || info.Replayed != rows[0] {
		t.Fatalf("torn second frame: recovered %+v, %v; want the first frame's %d rows", info, err, rows[0])
	}
	if renderTables(t, db) != renderTables(t, ingestPrefix(ms, rows[0])) {
		t.Fatal("torn split commit keeps something other than its first frame's rows")
	}
}
