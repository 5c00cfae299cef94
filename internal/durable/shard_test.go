package durable

import (
	"os"
	"testing"

	"tlsfof/internal/telemetry"
)

// TestOpenShardsBootsOnOneReading: OpenShards boots each shard directory
// on the reading Recover takes — the same store, the same Info — and the
// log it opens appends right after it, whether the directory holds a
// snapshot and a clean tail or a torn one. Commits after boot recover
// with the rest.
func TestOpenShardsBootsOnOneReading(t *testing.T) {
	root := t.TempDir()
	ms := syntheticMeasurements(120, 27)
	shards, _, err := OpenShards(root, 2, testOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		sh.Lock()
		_, err := sh.Commit(ms[:60], true)
		sh.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := sh.Log.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := WALStats(shards); len(st) != 2 || st[0].SnapshotSeq != 60 || st[1].LastSeq != 60 {
		t.Fatalf("WAL stats before close: %+v", st)
	}
	for _, sh := range shards {
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Tear shard 1's newest frame.
	layouts := layoutWAL(t, ShardDir(root, 1))
	last := layouts[len(layouts)-1]
	for i := len(layouts) - 1; len(last.frames) == 0; i-- {
		last = layouts[i]
	}
	if err := os.Truncate(last.path, last.frames[len(last.frames)-1].end-1); err != nil {
		t.Fatal(err)
	}

	var want []string
	var wantInfo []Info
	for i := range shards {
		db, info, err := Recover(testOptions(ShardDir(root, i)))
		if err != nil {
			t.Fatal(err)
		}
		want, wantInfo = append(want, renderTables(t, db)), append(wantInfo, info)
	}
	shards, infos, err := OpenShards(root, 2, testOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)
	for i, sh := range shards {
		if infos[i] != wantInfo[i] || renderTables(t, sh.DB) != want[i] {
			t.Fatalf("shard %d booted on %+v, Recover read %+v", i, infos[i], wantInfo[i])
		}
		if got := sh.Log.NextSeq(); got != infos[i].LastSeq+1 {
			t.Fatalf("shard %d appends at seq %d after a reading that ended at %d", i, got, infos[i].LastSeq)
		}
		sh.Tracer = tracer
		sh.Lock()
		last, err := sh.Commit(ms[60:], false)
		sh.Unlock()
		if err != nil || last != infos[i].LastSeq+60 {
			t.Fatalf("shard %d commit after boot: last seq %d, %v", i, last, err)
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		db, info, err := Recover(testOptions(ShardDir(root, i)))
		if err != nil || info.DroppedTail || info.LastSeq != last || renderTables(t, db) != renderTables(t, sh.DB) {
			t.Fatalf("shard %d after commit and close: %+v, %v", i, info, err)
		}
	}

	mem := NewMemShard()
	if last, err := mem.Commit(ms, false); err != nil || last != 0 || mem.Close() != nil || WALStats([]*Shard{mem}) != nil {
		t.Fatalf("memory-only shard: last seq %d, %v", last, err)
	}
}
