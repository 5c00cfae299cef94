package durable

// Open-time repair: a writer restarting over a crashed directory must
// truncate the torn tail itself before appending, or new frames would
// land beyond damage that recovery can never cross.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsfof/internal/store"
)

func TestOpenRepairsTornTailAndContinues(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(100, 21)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(ms[:60]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest non-empty segment mid-frame (the active segment
	// may have just rotated and hold only a header).
	layouts := layoutWAL(t, dir)
	last := layouts[len(layouts)-1]
	for i := len(layouts) - 1; i >= 0 && len(last.frames) == 0; i-- {
		last = layouts[i]
	}
	lastFrame := last.frames[len(last.frames)-1]
	if err := os.Truncate(last.path, lastFrame.end-3); err != nil {
		t.Fatal(err)
	}
	surviving := last.firstIndex + len(last.frames) - 1

	l, err = Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.RepairedBytes == 0 {
		t.Fatalf("open over a torn tail repaired nothing: %+v", st)
	}
	if got := int(st.LastSeq); got != surviving {
		t.Fatalf("repaired log continues at seq %d, want %d", got, surviving)
	}
	if err := l.AppendBatch(ms[60:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.DroppedTail {
		t.Fatalf("recovery after repair still sees damage: %+v", info)
	}
	want := store.New(0)
	for _, m := range ms[:surviving] {
		want.Ingest(m)
	}
	for _, m := range ms[60:] {
		want.Ingest(m)
	}
	if got, w := renderTables(t, db), renderTables(t, want); got != w {
		t.Fatal("repaired+continued log renders differently")
	}
}

func TestOpenDropsSegmentsBeyondDamage(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(100, 22)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	layouts := layoutWAL(t, dir)
	if len(layouts) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(layouts))
	}
	// Destroy the header of a middle segment: everything from there on
	// is unreachable, and Open must delete it all so appends continue
	// from the surviving prefix.
	mid := layouts[1]
	b, err := os.ReadFile(mid.path)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "XXXX")
	if err := os.WriteFile(mid.path, b, 0o666); err != nil {
		t.Fatal(err)
	}

	l, err = Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.DroppedSegments != len(layouts)-1 {
		t.Fatalf("dropped %d segments, want %d", st.DroppedSegments, len(layouts)-1)
	}
	if got := int(st.LastSeq); got != layouts[1].firstIndex {
		t.Fatalf("log continues at seq %d, want %d", got, layouts[1].firstIndex)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing was destroyed: the unreachable segments were set aside as
	// *.damaged (invisible to recovery, preserved for salvage), and the
	// live *.log namespace holds only the surviving prefix + fresh
	// active segment.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var damaged, live int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".damaged"):
			damaged++
		case strings.HasSuffix(e.Name(), ".log"):
			live++
		}
	}
	if damaged != len(layouts)-1 {
		t.Fatalf("%d .damaged files preserved, want %d", damaged, len(layouts)-1)
	}
	if live != 2 {
		t.Fatalf("%d live segments, want 2 (surviving prefix + fresh active)", live)
	}
	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.DroppedTail || int(info.LastSeq) != layouts[1].firstIndex {
		t.Fatalf("recovery after set-aside: %+v (want clean through %d)", info, layouts[1].firstIndex)
	}
	if got := db.Totals().Tested; got != layouts[1].firstIndex {
		t.Fatalf("recovered %d, want %d", got, layouts[1].firstIndex)
	}
}

func TestSyncAndLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ms := syntheticMeasurements(3, 23)
	if err := l.AppendBatch(ms[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != 1 {
		t.Fatalf("fsyncs = %d, want 1", got)
	}
	if err := l.Sync(); err != nil { // clean: no-op
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != 1 {
		t.Fatalf("fsyncs after clean Sync = %d, want still 1", got)
	}
	// An empty-active Rotate is a no-op.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Rotations; got != 1 {
		t.Fatalf("rotations = %d, want 1 (second was empty)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // closed: no-op
		t.Fatal(err)
	}
	if err := l.AppendBatch(ms[1:2]); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if err := l.Rotate(); err == nil {
		t.Fatal("rotate on closed log succeeded")
	}
}

func TestRecoverSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"manifest.json", "wal-zzzz.log", "snap-bad.snap", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a wal file"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	ms := syntheticMeasurements(10, 24)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 10 || info.DroppedTail {
		t.Fatalf("recovery info: %+v", info)
	}
	if db.Totals().Tested != 10 {
		t.Fatalf("recovered %d, want 10", db.Totals().Tested)
	}
}
