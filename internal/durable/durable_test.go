package durable

import (
	"crypto/x509"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/analysis"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
)

// syntheticMeasurements builds a deterministic, varied stream exercising
// every aggregate the store keeps.
func syntheticMeasurements(n int, seed uint64) []core.Measurement {
	r := stats.NewRNG(seed)
	countries := []string{"US", "BR", "IN", "DE", "??", "JP", "RO"}
	hosts := []struct {
		name string
		cat  hostdb.Category
	}{
		{"www.facebook.com", hostdb.Popular},
		{"smallbiz.example", hostdb.Business},
		{"tlsresearch.byu.edu", hostdb.Popular},
	}
	campaigns := []string{"broad", "targeted-br", "third"}
	products := []struct{ org, cn, product string }{
		{"Fortinet", "FortiGate CA", "FortiGate"},
		{"Sophos", "Sophos SSL", "Sophos UTM"},
		{"", "PSafe Tecnologia S.A.", "PSafe"},
		{"", "", ""},
	}
	epoch := time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, 0, n)
	for i := 0; i < n; i++ {
		h := hosts[r.Intn(len(hosts))]
		m := core.Measurement{
			Time:         epoch.Add(time.Duration(i) * time.Minute),
			ClientIP:     uint32(r.Uint64()>>16) | 1,
			Country:      countries[r.Intn(len(countries))],
			Host:         h.name,
			HostCategory: h.cat,
			Campaign:     campaigns[r.Intn(len(campaigns))],
		}
		if r.Bool(0.35) {
			p := products[r.Intn(len(products))]
			bits := []int{512, 1024, 2048, 2432}[r.Intn(4)]
			m.Obs = core.Observation{
				Proxied:      true,
				IssuerOrg:    p.org,
				IssuerCN:     p.cn,
				ProductName:  p.product,
				KeyBits:      bits,
				WeakKey:      bits < 2048,
				UpgradedKey:  bits == 2432,
				MD5Signed:    r.Bool(0.2),
				IssuerCopied: r.Bool(0.1),
				SubjectDrift: r.Bool(0.1),
				NullIssuer:   p.org == "" && p.cn == "",
				SigAlg:       x509.SHA256WithRSA,
				ChainLen:     1 + r.Intn(3),
				Category:     classify.Category(r.Intn(5)),
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// renderTables renders every store-backed paper artifact — the byte-level
// contract a recovered store must honor.
func renderTables(t *testing.T, db *store.DB) string {
	t.Helper()
	gdb := geo.NewDB()
	var b strings.Builder
	for _, render := range []func() error{
		func() error { return analysis.Table3(&b, db, gdb) },
		func() error { return analysis.Table4(&b, db, 0) },
		func() error { return analysis.Table5(&b, db) },
		func() error { return analysis.Table6(&b, db) },
		func() error { return analysis.Table7(&b, db, gdb) },
		func() error { return analysis.Table8(&b, db) },
		func() error { return analysis.Negligence(&b, db) },
		func() error { return analysis.Products(&b, db, 0) },
	} {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// ingestPrefix aggregates the first k measurements the way a
// never-crashed store would.
func ingestPrefix(ms []core.Measurement, k int) *store.DB {
	db := store.New(0)
	for _, m := range ms[:k] {
		db.Ingest(m)
	}
	return db
}

// appendPer appends ms to l in frames of per measurements each (the
// last frame may hold fewer), so a test can count frames.
func appendPer(t testing.TB, l *Log, ms []core.Measurement, per int) {
	t.Helper()
	for i := 0; i < len(ms); i += per {
		if err := l.AppendBatch(ms[i:min(i+per, len(ms))]); err != nil {
			t.Fatal(err)
		}
	}
}

func testOptions(dir string) Options {
	return Options{Dir: dir, SegmentBytes: 2 << 10, SyncEvery: -1}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(120, 1)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendPer(t, l, ms, 10)
	st := l.Stats()
	if st.AppendedFrames != 12 || st.LastSeq != 12 {
		t.Fatalf("stats after append: %+v", st)
	}
	if st.Segments < 2 {
		t.Fatalf("expected rotation at %d-byte segments, got %d segment(s)", 2<<10, st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.DroppedTail || info.Replayed != 120 || info.LastSeq != 12 {
		t.Fatalf("recovery info: %+v", info)
	}
	if got, want := renderTables(t, db), renderTables(t, ingestPrefix(ms, 120)); got != want {
		t.Fatal("recovered store renders differently from direct ingest")
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(90, 2)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendPer(t, l, ms[:40], 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().LastSeq; got != 10 {
		t.Fatalf("reopened LastSeq = %d, want 10", got)
	}
	appendPer(t, l, ms[40:], 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 90 || info.LastSeq != 20 || info.DroppedTail {
		t.Fatalf("recovery info: %+v", info)
	}
	if got, want := renderTables(t, db), renderTables(t, ingestPrefix(ms, 90)); got != want {
		t.Fatal("recovered store renders differently after reopen")
	}
}

func TestCheckpointBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(150, 3)
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if err := l.AppendBatch(ms[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%50 == 0 {
			info, err := l.Checkpoint(math.MaxUint64)
			if err != nil {
				t.Fatal(err)
			}
			if info.LastSeq != uint64(i+1) {
				t.Fatalf("checkpoint after %d covers seq %d", i+1, info.LastSeq)
			}
		}
	}
	st := l.Stats()
	if st.SnapshotSeq != 150 {
		t.Fatalf("snapshot seq %d, want 150", st.SnapshotSeq)
	}
	if st.Compactions != 3 {
		t.Fatalf("compactions = %d, want 3", st.Compactions)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction must actually delete covered segments and old snapshots.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, snaps int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".log"):
			segs++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk, want 1", snaps)
	}
	if segs > 1 {
		t.Fatalf("%d segments on disk after compaction, want <= 1 (the active)", segs)
	}

	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 150 || info.LastSeq != 150 {
		t.Fatalf("recovery info: %+v", info)
	}
	if got, want := renderTables(t, db), renderTables(t, ingestPrefix(ms, 150)); got != want {
		t.Fatal("recovered store renders differently after checkpoints")
	}
}

// TestShutdownCheckpointCollapsesDir: the shutdown path (Checkpoint, then
// Close) leaves one snapshot and a header-only active segment, recovery
// is one decode, a second checkpoint with nothing new changes nothing,
// and a reopened log appends after the snapshot.
// TestCheckpointStopsAtBound: a bounded checkpoint folds only the sealed
// segments whose every frame lies below the bound. The segment holding
// the bound stays a segment, so CheckTail still serves from the bound,
// and a later checkpoint with no bound folds the rest.
func TestCheckpointStopsAtBound(t *testing.T) {
	ms := syntheticMeasurements(120, 9)
	l, err := Open(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendPer(t, l, ms, 1)
	const bound = 60
	info, err := l.Checkpoint(bound)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq == 0 || info.LastSeq >= bound {
		t.Fatalf("checkpoint below %d covers seq %d, want a sealed prefix below the bound", bound, info.LastSeq)
	}
	if err := l.CheckTail(bound); err != nil {
		t.Fatalf("tail from the bound after a checkpoint below it: %v", err)
	}
	if info, err = l.Checkpoint(math.MaxUint64); err != nil || info.LastSeq != 120 {
		t.Fatalf("unbounded checkpoint: %+v, %v; want every frame through 120", info, err)
	}
}

func TestShutdownCheckpointCollapsesDir(t *testing.T) {
	dir := t.TempDir()
	ms := syntheticMeasurements(80, 4)
	extra := syntheticMeasurements(20, 5)
	life := func(batch []core.Measurement, checkpoint bool) {
		t.Helper()
		l, err := Open(testOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		appendPer(t, l, batch, 1)
		if checkpoint {
			if info, err := l.Checkpoint(math.MaxUint64); err != nil || info.LastSeq != 80 {
				t.Fatalf("checkpoint: %+v, %v", info, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	collapsed := func() {
		t.Helper()
		entries, _ := os.ReadDir(dir)
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if len(names) != 2 || !strings.HasSuffix(names[0], ".snap") || !strings.HasSuffix(names[1], ".log") {
			t.Fatalf("dir after the shutdown checkpoint = %v, want one .snap and the active .log", names)
		}
		db, info, err := Recover(testOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		if info.SnapshotSeq != 80 || info.Replayed != 0 {
			t.Fatalf("recovery info: %+v", info)
		}
		if got, want := renderTables(t, db), renderTables(t, ingestPrefix(ms, 80)); got != want {
			t.Fatal("snapshot-only recovery renders differently")
		}
	}
	life(ms, true)
	collapsed()
	life(nil, true)
	collapsed()
	life(extra, false)

	db, info, err := Recover(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 20 || info.LastSeq != 100 {
		t.Fatalf("recovery info: %+v", info)
	}
	want := ingestPrefix(ms, 80)
	for _, m := range extra {
		want.Ingest(m)
	}
	if got, w := renderTables(t, db), renderTables(t, want); got != w {
		t.Fatal("snapshot+tail recovery renders differently")
	}
}

func TestRecoverEmptyOrMissingDir(t *testing.T) {
	db, info, err := Recover(Options{Dir: filepath.Join(t.TempDir(), "never-created")})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 0 || db.Totals().Tested != 0 {
		t.Fatalf("expected empty recovery, got %+v, %v", info, db.Totals())
	}
}

func TestBackgroundSyncer(t *testing.T) {
	ms := syntheticMeasurements(10, 6)
	// Background syncer: appends become durable without Close.
	dir2 := t.TempDir()
	opt2 := Options{Dir: dir2, SegmentBytes: 2 << 10, SyncEvery: time.Millisecond}
	l2, err := Open(opt2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.AppendBatch(ms); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := l2.Stats(); st.Fsyncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background syncer never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}
