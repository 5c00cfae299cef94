package ingest

import (
	"strings"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/store"
)

func walTestMeasurements(n int) []core.Measurement {
	epoch := time.Date(2014, time.January, 6, 0, 0, 0, 0, time.UTC)
	hosts := []string{"a.example", "b.example", "c.example", "d.example"}
	ms := make([]core.Measurement, n)
	for i := range ms {
		ms[i] = core.Measurement{
			Time:     epoch.Add(time.Duration(i) * time.Second),
			ClientIP: uint32(i + 1),
			Country:  []string{"US", "BR", "DE"}[i%3],
			Host:     hosts[i%len(hosts)],
			Campaign: "wal-test",
		}
		if i%5 == 0 {
			ms[i].Obs = core.Observation{Proxied: true, IssuerOrg: "Fortinet", ProductName: "FortiGate", KeyBits: 1024, WeakKey: true}
		}
	}
	return ms
}

// recoverAll merges every shard WAL directory back into one store.
func recoverAll(t *testing.T, dir string, shards int) *store.DB {
	t.Helper()
	dbs := make([]*store.DB, shards)
	for i := 0; i < shards; i++ {
		db, _, err := durable.Recover(durable.Options{Dir: durable.ShardDir(dir, i)})
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return store.Merge(0, dbs...)
}

func TestPipelineWALPersistsEveryDeliveredMeasurement(t *testing.T) {
	dir := t.TempDir()
	ms := walTestMeasurements(500)
	cfg := Config{Shards: 4, BatchSize: 32, WALDir: dir}
	pl, infos, err := OpenPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("got %d recovery infos, want 4", len(infos))
	}
	for _, m := range ms {
		pl.Ingest(m)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	want := pl.Merge(0)
	if st := pl.Stats(); st.WALErrors != 0 {
		t.Fatalf("WAL errors: %d", st.WALErrors)
	}

	recovered := recoverAll(t, dir, 4)
	assertSameStore(t, recovered, want)
	direct := store.New(0)
	for _, m := range ms {
		direct.Ingest(m)
	}
	assertSameStore(t, recovered, direct)
}

func TestPipelineRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ms := walTestMeasurements(400)
	cfg := Config{Shards: 3, BatchSize: 16, WALDir: dir}

	pl, _, err := OpenPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.IngestBatch(ms[:200])
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new pipeline over the same directory must resume from
	// the recovered shard stores and keep appending.
	pl2, infos, err := OpenPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recovered int
	for _, info := range infos {
		recovered += info.Replayed
	}
	if recovered != 200 {
		t.Fatalf("second boot replayed %d frames, want 200", recovered)
	}
	pl2.IngestBatch(ms[200:])
	pl2.Drain()
	got := pl2.Merge(0)
	direct := store.New(0)
	for _, m := range ms {
		direct.Ingest(m)
	}
	assertSameStore(t, got, direct)
	if err := pl2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := pl2.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, recoverAll(t, dir, 3), direct)
}

func TestPipelineManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, WALDir: dir}
	pl, _, err := OpenPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	if _, _, err := OpenPipeline(cfg); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard-count change must be refused, got %v", err)
	}
}

// assertSameStore compares the aggregate surface two stores expose.
func assertSameStore(t *testing.T, got, want *store.DB) {
	t.Helper()
	if g, w := got.Totals(), want.Totals(); g != w {
		t.Fatalf("totals %+v != %+v", g, w)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("summary %q != %q", g, w)
	}
	if g, w := got.Negligence(), want.Negligence(); g != w {
		t.Fatalf("negligence %+v != %+v", g, w)
	}
	gp, wp := got.Products(), want.Products()
	if len(gp) != len(wp) {
		t.Fatalf("products %v != %v", gp, wp)
	}
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("product %d: %+v != %+v", i, gp[i], wp[i])
		}
	}
}
