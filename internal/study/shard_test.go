package study

// The concurrency-independence property: a seeded study whose campaigns
// generate concurrently (Shards > 1: one goroutine per campaign, each
// filling a private store, one deterministic store.Merge) must render
// every paper artifact — Tables 1-8, Figure 7, and the §5.2 negligence
// stats — and write every export byte-identical to the run that generates
// them inline in campaign order. Goroutine scheduling must never leak into
// a result.

import (
	"bytes"
	"strings"
	"testing"

	"tlsfof/internal/analysis"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/store"
)

// renderAll renders every artifact both paths must agree on into one
// comparable string.
func renderAll(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	if err := analysis.Table1(&b, res.Hosts); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table2(&b, res.Outcomes, res.Total); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table3(&b, res.Store, res.Geo); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table4(&b, res.Store, 0); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table5(&b, res.Store); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table6(&b, res.Store); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table7(&b, res.Store, res.Geo); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Table8(&b, res.Store); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Negligence(&b, res.Store); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Products(&b, res.Store, 0); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Figure7ASCII(&b, res.Store, res.Geo); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Figure7SVG(&b, res.Store, res.Geo); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestShardedStudyRendersIdenticalArtifacts(t *testing.T) {
	// Study 2 exercises real parallelism: six campaigns generating
	// concurrently.
	base := Config{Study: clientpop.Study2, Seed: 2014, Scale: 0.01, Pool: sharedPool}

	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, seq)

	for _, shards := range []int{2, 4, 8} {
		cfg := base
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing lost, nothing counted twice.
		if got.Store.Totals() != seq.Store.Totals() {
			t.Fatalf("shards=%d: totals %+v, sequential %+v",
				shards, got.Store.Totals(), seq.Store.Totals())
		}
		rendered := renderAll(t, got)
		if rendered != want {
			t.Fatalf("shards=%d: rendered artifacts differ from single-threaded run\n"+
				"first divergence near byte %d", shards, firstDiff(rendered, want))
		}
	}
}

// TestShardedStudyDeterministicAcrossRuns: the parallel path is not just
// equivalent to sequential, it is reproducible against itself (goroutine
// scheduling must not leak into results).
func TestShardedStudyDeterministicAcrossRuns(t *testing.T) {
	// RetainProxied is set so the capped retained set is covered too: the
	// cap must select the same records every run (it is applied after the
	// canonical merge sort, never per campaign store).
	cfg := Config{Study: clientpop.Study1, Seed: 7, Scale: 0.02, Shards: 4, RetainProxied: 40, Pool: sharedPool}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := renderAll(t, a), renderAll(t, b)
	if ra != rb {
		t.Fatalf("two sharded runs of the same seed diverge near byte %d", firstDiff(ra, rb))
	}
	// Retained records are canonicalized, so exports must match too.
	var ca, cb strings.Builder
	if err := a.Store.WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.Store.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Fatal("sharded CSV exports diverge between identical runs")
	}
}

// TestShardedRetainCap: the merged store honors RetainProxied.
func TestShardedRetainCap(t *testing.T) {
	cfg := Config{Study: clientpop.Study1, Seed: 3, Scale: 0.02, Shards: 4, RetainProxied: 25, Pool: sharedPool}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Store.ProxiedRecords()); n != 25 {
		t.Fatalf("retained %d proxied records, want 25", n)
	}
	if res.Store.Totals().Proxied <= 25 {
		t.Fatalf("degenerate run: only %d proxied", res.Store.Totals().Proxied)
	}
}

// TestStudyExportsIdenticalAcrossArms: the exports — not just the tables —
// are a function of (study, seed, scale): CSV and JSONL of the capped
// retained set are byte-identical inline and concurrent.
func TestStudyExportsIdenticalAcrossArms(t *testing.T) {
	base := Config{Study: clientpop.Study2, Seed: 2014, Scale: 0.005, RetainProxied: 40, Pool: sharedPool}
	exports := func(res *Result) []byte {
		var b bytes.Buffer
		if err := res.Store.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := res.Store.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(seq.Store.ProxiedRecords()); n != 40 || seq.Store.Totals().Proxied <= 40 {
		t.Fatalf("degenerate run: retained %d of %d proxied", n, seq.Store.Totals().Proxied)
	}
	want := exports(seq)

	for _, shards := range []int{1, 4} {
		cfg := base
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exports(res), want) {
			t.Errorf("shards=%d: exports differ from the inline run", shards)
		}
	}
}

// TestMergeMatchesStudyStore sanity-checks store.Merge against a study
// store split after the fact (a different partition than host-hash).
func TestMergeMatchesStudyStore(t *testing.T) {
	res, err := Run(Config{Study: clientpop.Study1, Seed: 11, Scale: 0.02, Pool: sharedPool})
	if err != nil {
		t.Fatal(err)
	}
	whole := store.Merge(0, res.Store)
	if whole.Totals() != res.Store.Totals() {
		t.Fatalf("identity merge changed totals: %+v vs %+v", whole.Totals(), res.Store.Totals())
	}
	if whole.Negligence() != res.Store.Negligence() {
		t.Fatal("identity merge changed negligence stats")
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
