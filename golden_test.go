package tlsfof

// Golden-table conformance suite: the rendered paper artifacts (Tables
// 1-8, the §5.2 negligence report, the §6.4 product diversity table) for
// a small fixed-seed study are checked into testdata/golden/, and every
// path the system offers into a store — campaigns inline, campaigns
// concurrent, the sharded ingest pipeline and recovered from the durable
// shard engine's WALs — must reproduce them byte-for-byte. This pins the
// reproduction against every scaling and persistence change at once: a PR
// that alters any byte of any table on any path fails here.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGoldenTables -update .

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tlsfof/internal/analysis"
	"tlsfof/internal/certgen"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/ingest"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/ from the current sequential run")

// goldenConfig is the fixed-seed study the fixtures pin. Study 2 renders
// every artifact meaningfully (six campaigns, 18 hosts, every table
// populated).
func goldenConfig() study.Config {
	return study.Config{Study: clientpop.Study2, Seed: 2014, Scale: 0.01, Pool: certgen.DefaultPool}
}

// goldenArtifacts renders each artifact by name from a result whose
// Store may have been swapped (the recovered-from-WAL path).
func goldenArtifacts(t *testing.T, res *study.Result) map[string][]byte {
	t.Helper()
	render := func(f func(*bytes.Buffer) error) []byte {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	return map[string][]byte{
		"table1.txt": render(func(b *bytes.Buffer) error { return analysis.Table1(b, res.Hosts) }),
		"table2.txt": render(func(b *bytes.Buffer) error { return analysis.Table2(b, res.Outcomes, res.Total) }),
		"table3.txt": render(func(b *bytes.Buffer) error { return analysis.Table3(b, res.Store, res.Geo) }),
		"table4.txt": render(func(b *bytes.Buffer) error { return analysis.Table4(b, res.Store, 0) }),
		"table5.txt": render(func(b *bytes.Buffer) error { return analysis.Table5(b, res.Store) }),
		"table6.txt": render(func(b *bytes.Buffer) error { return analysis.Table6(b, res.Store) }),
		"table7.txt": render(func(b *bytes.Buffer) error { return analysis.Table7(b, res.Store, res.Geo) }),
		"table8.txt": render(func(b *bytes.Buffer) error { return analysis.Table8(b, res.Store) }),
		"negligence.txt": render(func(b *bytes.Buffer) error {
			return analysis.Negligence(b, res.Store)
		}),
		"products.txt": render(func(b *bytes.Buffer) error {
			return analysis.Products(b, res.Store, 0)
		}),
	}
}

func goldenDir(t *testing.T) string {
	dir := filepath.Join("testdata", "golden")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkAgainstGolden compares every artifact with its fixture.
func checkAgainstGolden(t *testing.T, path string, got map[string][]byte) {
	t.Helper()
	for name, data := range got {
		want, err := os.ReadFile(filepath.Join(path, name))
		if err != nil {
			t.Fatalf("%s: %v (run `go test -run TestGoldenTables -update .` to create fixtures)", name, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: rendered artifact differs from golden fixture\n--- got ---\n%s\n--- want ---\n%s", name, data, want)
		}
	}
}

func TestGoldenTables(t *testing.T) {
	dir := goldenDir(t)

	seq, err := study.Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	sequential := goldenArtifacts(t, seq)

	if *updateGolden {
		for name, data := range sequential {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden fixtures in %s", len(sequential), dir)
	}

	t.Run("sequential", func(t *testing.T) {
		checkAgainstGolden(t, dir, sequential)
	})

	t.Run("sharded", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Shards = 4
		res, err := study.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstGolden(t, dir, goldenArtifacts(t, res))
	})

	t.Run("pipeline", func(t *testing.T) {
		// The study no longer goes through ingest.Pipeline, reportd does:
		// record the golden stream and feed it the way concurrent
		// uploaders would — two Batchers into four shards, then Merge.
		res, stream := recordStream(t, goldenConfig())
		pl := ingest.NewPipeline(ingest.Config{Shards: 4})
		const feeders = 2
		var wg sync.WaitGroup
		for w := 0; w < feeders; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := ingest.NewBatcher(pl, 0)
				for i := w; i < len(stream); i += feeders {
					b.Ingest(stream[i])
				}
				b.Flush()
			}()
		}
		wg.Wait()
		if err := pl.Close(); err != nil {
			t.Fatal(err)
		}
		res.Store = pl.Merge(0)
		if got := res.Store.Totals().Tested; got != len(stream) {
			t.Fatalf("pipeline stored %d of %d measurements", got, len(stream))
		}
		checkAgainstGolden(t, dir, goldenArtifacts(t, res))
	})

	t.Run("recovered-from-wal", func(t *testing.T) {
		checkAgainstGolden(t, dir, goldenArtifacts(t, recoverFromShards(t, goldenConfig())))
	})

	// Double-check one cross-path artifact digest so a future path can't
	// silently diverge from another while both drift from the fixtures
	// being -updated together.
	t.Run("cross-path-identity", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Shards = 2
		res, err := study.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenArtifacts(t, res)
		for name, data := range sequential {
			if !bytes.Equal(got[name], data) {
				t.Errorf("%s: 2-shard path differs from sequential path", name)
			}
		}
	})
}

// TestGoldenRecoveredStoreIsLive pins that a store recovered from disk
// is not a dead rendering copy: continued ingest equals continued ingest
// on the original (the reportd restart scenario).
func TestGoldenRecoveredStoreIsLive(t *testing.T) {
	cfg := goldenConfig()
	cfg.Scale = 0.002
	res, err := study.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	extra := res.Store.ProxiedRecords()
	if len(extra) == 0 {
		t.Fatal("fixture run retained no proxied records")
	}
	a, b := recoverFromShards(t, cfg).Store, res.Store
	for _, m := range extra {
		a.Ingest(m)
		b.Ingest(m)
	}
	if fmt.Sprintf("%+v", a.Totals()) != fmt.Sprintf("%+v", b.Totals()) ||
		a.String() != b.String() {
		t.Fatalf("post-recovery ingest diverged: %s vs %s", a.String(), b.String())
	}
}

// recordStream runs cfg with every measurement recorded through
// Config.Sink, so the result's Store is nil.
func recordStream(t *testing.T, cfg study.Config) (*study.Result, []core.Measurement) {
	t.Helper()
	var stream []core.Measurement
	cfg.Sink = core.SinkFunc(func(m core.Measurement) { stream = append(stream, m) })
	res, err := study.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, stream
}

// recoverFromShards pushes cfg's stream through the WAL code reportd and
// cluster.Node ship: it commits the stream into four durable shards,
// partitioned by host the way ingest.Pipeline does, with small segments
// and a checkpoint every 5,000 measurements so rotation, snapshotting and
// compaction all run, and leaves the last window in the WAL tail. It then
// closes the shards, recovers each directory from disk alone, and returns
// the run with its Store replaced by the merge of the recovered shards.
func recoverFromShards(t *testing.T, cfg study.Config) *study.Result {
	t.Helper()
	const shardCount, checkpointEvery = 4, 5000
	res, stream := recordStream(t, cfg)
	root := t.TempDir()
	shards, _, err := durable.OpenShards(root, shardCount, "", durable.Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(stream); start += checkpointEvery {
		if start > 0 {
			for _, sh := range shards {
				if _, err := sh.Log.Checkpoint(math.MaxUint64); err != nil {
					t.Fatal(err)
				}
			}
		}
		parts := make([]core.Batch, shardCount)
		for _, m := range stream[start:min(start+checkpointEvery, len(stream))] {
			parts[durable.ShardOf(m.Host, shardCount)].Add(&m)
		}
		for i, sh := range shards {
			sh.Lock()
			_, err := sh.Commit(&parts[i], false)
			sh.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	dbs := make([]*store.DB, shardCount)
	for i, sh := range shards {
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		db, info, err := durable.Recover(durable.Options{Dir: durable.ShardDir(root, i)})
		if err != nil {
			t.Fatal(err)
		}
		if info.DroppedTail {
			t.Fatalf("shard %d: clean close recovered with damage: %+v", i, info)
		}
		dbs[i] = db
	}
	res.Store = store.Merge(0, dbs...)
	if got := res.Store.Totals().Tested; got != len(stream) {
		t.Fatalf("recovered %d of %d measurements", got, len(stream))
	}
	return res
}
