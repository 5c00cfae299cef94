package durable

import (
	"math"
	"os"
	"strings"
	"testing"

	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/telemetry"
)

// batchOf builds ms into one batch with Add, as a mount fills its
// pending batch.
func batchOf(ms []core.Measurement) *core.Batch {
	b := new(core.Batch)
	for i := range ms {
		b.Add(&ms[i])
	}
	return b
}

// TestOpenShardsBootsOnOneReading: OpenShards boots each shard directory
// on the reading Recover takes — the same store, the same Info — and the
// log it opens appends right after it, whether the directory holds a
// snapshot and a clean tail or a torn one. Commits after boot recover
// with the rest.
func TestOpenShardsBootsOnOneReading(t *testing.T) {
	root := t.TempDir()
	ms := syntheticMeasurements(120, 27)
	shards, _, err := OpenShards(root, 2, "", testOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		sh.Lock()
		_, err := sh.Commit(batchOf(ms[:60]), true)
		sh.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := sh.Log.Checkpoint(math.MaxUint64); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each commit is one frame.
	if st := WALStats(shards); len(st) != 2 || st[0].SnapshotSeq != 1 || st[1].LastSeq != 1 {
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
	shards, infos, err := OpenShards(root, 2, "", testOptions(""))
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
		last, err := sh.Commit(batchOf(ms[60:]), false)
		sh.Unlock()
		if err != nil || last != infos[i].LastSeq+1 {
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
	if last, err := mem.Commit(batchOf(ms), false); err != nil || last != 0 || mem.Close() != nil || WALStats([]*Shard{mem}) != nil {
		t.Fatalf("memory-only shard: last seq %d, %v", last, err)
	}
}

// TestFailedCommitLeavesNoFrames: a commit that fails on an unframable
// measurement writes nothing — not the frames before it either — so the
// live store and the recovered one agree, and a retried batch is not
// counted twice after a restart. The batch crosses a segment boundary
// before its oversized last measurement.
func TestFailedCommitLeavesNoFrames(t *testing.T) {
	root := t.TempDir()
	shards, _, err := OpenShards(root, 1, "", testOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	ms := syntheticMeasurements(31, 5)
	ms[30].Host = strings.Repeat("x", MaxFramePayload)
	sh.Lock()
	_, err = sh.Commit(batchOf(ms), true)
	sh.Unlock()
	if err == nil || !strings.Contains(err.Error(), "encodes to") {
		t.Fatalf("oversized commit: %v, want an encoding-size error", err)
	}
	if got := sh.Log.NextSeq(); got != 1 {
		t.Fatalf("failed commit consumed sequence numbers: next seq %d", got)
	}
	sh.Lock()
	last, err := sh.Commit(batchOf(ms[:2]), true)
	sh.Unlock()
	if err != nil || last != 1 {
		t.Fatalf("commit after the failure: last seq %d, %v", last, err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	db, info, err := Recover(testOptions(ShardDir(root, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 || info.LastSeq != 1 || info.DroppedTail {
		t.Fatalf("recovered %+v, want the committed frame's 2 measurements and nothing of the failed batch", info)
	}
	if renderTables(t, db) != renderTables(t, sh.DB) {
		t.Fatal("recovered store differs from the live store")
	}
}

// TestCommitFilesOneTraceRecord: a commit files its stages once,
// however many of its rows are traced. A commit of 1 traced row and one
// of 4,096 each take the tracer lock once and file the same two spans,
// wal_append and store_merge, and every traced row looks up to exactly
// those spans.
func TestCommitFilesOneTraceRecord(t *testing.T) {
	shards, _, err := OpenShards(t.TempDir(), 1, "", testOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	defer sh.Close()
	reg := telemetry.NewRegistry()
	sh.Tracer = telemetry.NewTracer(reg, 0)
	filings := reg.Counter("trace_span_filings_total", "")
	next := telemetry.TraceID(1)
	for _, traced := range []int{1, 4096} {
		// Untraced rows first: the batch's key is its first traced row.
		ms := syntheticMeasurements(traced+7, uint64(traced))
		var ids []telemetry.TraceID
		for i := 7; i < len(ms); i++ {
			ms[i].Trace = uint64(next)
			ids = append(ids, next)
			next++
		}
		before := filings.Value()
		sh.Lock()
		_, err := sh.Commit(batchOf(ms), false)
		sh.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if n := filings.Value() - before; n != 1 {
			t.Fatalf("commit of %d traced rows filed %d times, want 1", traced, n)
		}
		distinct := map[telemetry.Span]bool{}
		for _, id := range ids {
			tr, ok := sh.Tracer.Lookup(id)
			if !ok || len(tr.Spans) != 2 || tr.Spans[0].Stage != telemetry.StageWAL || tr.Spans[1].Stage != telemetry.StageStore {
				t.Fatalf("commit of %d traced rows: row %v looks up to %+v, want wal_append and store_merge", traced, id, tr.Spans)
			}
			for _, sp := range tr.Spans {
				sp.Start = sp.Start.Round(0)
				distinct[sp] = true
			}
		}
		if len(distinct) != 2 {
			t.Fatalf("commit of %d traced rows filed %d distinct spans, want 2", traced, len(distinct))
		}
	}
}

// TestShardOfPinned pins ShardOf over the study-2 hosts, in hostdb
// order, at 2 and 4 shards. Shard manifests record this partition on
// disk, so a change here strands every existing data directory.
func TestShardOfPinned(t *testing.T) {
	for n, want := range map[int]string{2: "10111010110100010", 4: "30131030132322010"} {
		got := make([]byte, 0, len(want))
		for _, h := range hostdb.SecondStudyHosts() {
			got = append(got, byte('0'+ShardOf(h.Name, n)))
		}
		if string(got) != want {
			t.Errorf("ShardOf at n=%d = %s, want %s", n, got, want)
		}
	}
}
