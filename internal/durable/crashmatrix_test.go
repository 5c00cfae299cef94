package durable

// The crash matrix: for every frame boundary in a multi-segment WAL —
// plus torn writes inside every frame, and seeded single-byte corruption
// (internal/faultnet's corruption primitive applied to the file layer) —
// Recover must drop only the damaged tail and render every store-backed
// table byte-identical to a never-crashed run over the surviving prefix.
// This is the correctness contract of DESIGN.md §10: a crash can cost
// the non-durable tail, never the prefix, and never table fidelity.

import (
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
	segs, err := listSegments(dir)
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
			if _, err := l.Checkpoint(); err != nil {
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
	snaps, err := listSnapshots(pristine)
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
