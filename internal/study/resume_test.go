package study

// Resume equivalence: a fixed-seed study killed mid-run (deterministic
// crash injection via Config.AbortAfter, optionally with a torn write on
// the WAL tail) and resumed from its data directory must render every
// paper artifact byte-identical to the uninterrupted run. This is the
// acceptance contract of the durable plane: an interruption costs only
// the re-generation of non-durable measurements, never fidelity.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsfof/internal/clientpop"
	"tlsfof/internal/durable"
)

// abortTarget picks ~50% of the run's measurement count.
func abortTarget(t *testing.T, base Config) int {
	t.Helper()
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	return full.Store.Totals().Tested / 2
}

func TestResumeEquivalenceSequential(t *testing.T) {
	base := Config{Study: clientpop.Study2, Seed: 2014, Scale: 0.005, Pool: sharedPool}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, uninterrupted)
	half := uninterrupted.Store.Totals().Tested / 2

	dir := t.TempDir()
	crash := base
	crash.DataDir = dir
	crash.AbortAfter = half
	crash.SnapshotEvery = half / 3 // exercise mid-run checkpoints too
	if _, err := Run(crash); !errors.Is(err, ErrAborted) {
		t.Fatalf("crash run returned %v, want ErrAborted", err)
	}

	resumed := base
	resumed.DataDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume == nil || res.Resume.Recovered == 0 {
		t.Fatalf("resumed run reported no recovery: %+v", res.Resume)
	}
	if res.Resume.Recovered > half+64 {
		t.Fatalf("recovered %d measurements, abort was at %d", res.Resume.Recovered, half)
	}
	if got := renderAll(t, res); got != want {
		t.Fatalf("resumed tables differ from uninterrupted run near byte %d", firstDiff(renderAll(t, res), want))
	}
	if got, want := res.Store.Totals(), uninterrupted.Store.Totals(); got != want {
		t.Fatalf("totals %+v != %+v", got, want)
	}
}

func TestResumeEquivalenceAfterTornWrite(t *testing.T) {
	base := Config{Study: clientpop.Study1, Seed: 7, Scale: 0.005, Pool: sharedPool}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, uninterrupted)
	half := uninterrupted.Store.Totals().Tested / 2

	dir := t.TempDir()
	crash := base
	crash.DataDir = dir
	crash.AbortAfter = half
	if _, err := Run(crash); !errors.Is(err, ErrAborted) {
		t.Fatalf("crash run returned %v, want ErrAborted", err)
	}

	// Tear the WAL tail: chop bytes off the newest segment, as a crash
	// mid-write would. Recovery must drop the torn frames and resume
	// must regenerate them.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && (newest == "" || e.Name() > newest) {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no WAL segment after aborted run")
	}
	seg := filepath.Join(dir, newest)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-37); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.DataDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume.Recovered >= half {
		t.Fatalf("torn write dropped nothing: recovered %d of %d", res.Resume.Recovered, half)
	}
	if got := renderAll(t, res); got != want {
		t.Fatalf("post-torn-write resume differs from uninterrupted run near byte %d", firstDiff(got, want))
	}
}

func TestResumeEquivalenceSharded(t *testing.T) {
	// Crash a concurrent run (campaigns generating in parallel, all
	// teeing into one WAL), resume concurrent, compare against the
	// sequential uninterrupted run.
	base := Config{Study: clientpop.Study2, Seed: 99, Scale: 0.005, Pool: sharedPool}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, uninterrupted)
	half := uninterrupted.Store.Totals().Tested / 2

	dir := t.TempDir()
	crash := base
	crash.Shards = 4
	crash.DataDir = dir
	crash.AbortAfter = half
	if _, err := Run(crash); !errors.Is(err, ErrAborted) {
		t.Fatalf("crash run returned %v, want ErrAborted", err)
	}

	resumed := base
	resumed.Shards = 4
	resumed.DataDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, res); got != want {
		t.Fatalf("sharded resume differs from uninterrupted run near byte %d", firstDiff(got, want))
	}
}

func TestCompletedRunRerunsAsNoOp(t *testing.T) {
	base := Config{Study: clientpop.Study1, Seed: 5, Scale: 0.005, Pool: sharedPool}
	dir := t.TempDir()
	withDir := base
	withDir.DataDir = dir
	first, err := Run(withDir)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, first)
	// After completion the directory holds a single snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		case strings.HasSuffix(e.Name(), ".log"):
			segs++
		}
	}
	if snaps != 1 || segs != 0 {
		t.Fatalf("completed run left %d snapshots, %d segments; want 1, 0", snaps, segs)
	}

	second, err := Run(withDir)
	if err != nil {
		t.Fatal(err)
	}
	if second.Resume.Recovered != first.Store.Totals().Tested {
		t.Fatalf("rerun recovered %d, want all %d", second.Resume.Recovered, first.Store.Totals().Tested)
	}
	if second.Resume.WAL.AppendedFrames != 0 {
		t.Fatalf("rerun appended %d frames, want 0", second.Resume.WAL.AppendedFrames)
	}
	if got := renderAll(t, second); got != want {
		t.Fatalf("rerun differs near byte %d", firstDiff(got, want))
	}
}

func TestResumeRefusesMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Study: clientpop.Study1, Seed: 5, Scale: 0.005, Pool: sharedPool, DataDir: dir, AbortAfter: 100}
	if _, err := Run(cfg); !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	bad := cfg
	bad.AbortAfter = 0
	bad.Seed = 6
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("seed change must be refused, got %v", err)
	}
	// The directory is intact: the original config still resumes.
	if _, _, err := durable.Recover(durable.Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	good := cfg
	good.AbortAfter = 0
	if _, err := Run(good); err != nil {
		t.Fatal(err)
	}
}
