package cluster

// One conformance battery for the shard engine (durable.Shard), driven
// through both of its mounts: ingest.OpenPipeline and a one-member
// cluster.Open. The mounts differ in policy — when a batch is durable,
// what a crash looks like — and must not differ in what a reboot
// recovers.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/ingest"
	"tlsfof/internal/store"
)

// mounted is one booted mount of the shard engine.
type mounted struct {
	// commit hands one batch to the mount.
	commit func([]core.Measurement) error
	// settle returns once every committed batch is durable under the
	// mount's policy — the point at which the mount has acked them.
	settle func()
	// abandon is the crash: the mount is dropped without Close.
	abandon func()
	// canonical is the merged shard stores in store.Merge's canonical form.
	canonical func() []byte
	close     func() error
}

// shardMount boots a mount over a data directory.
type shardMount struct {
	name string
	// root maps the data directory to where the shard-NNN directories live.
	root func(dir string) string
	open func(t *testing.T, dir string, shards int) (mounted, error)
}

var shardMounts = []shardMount{
	{
		name: "pipeline",
		root: func(dir string) string { return dir },
		open: func(t *testing.T, dir string, shards int) (mounted, error) {
			pl, _, err := ingest.OpenPipeline(ingest.Config{Shards: shards, BatchSize: 16, WALDir: dir})
			if err != nil {
				return mounted{}, err
			}
			// An abandoned pipeline still owns its syncers and segment
			// files; release them when the test ends.
			t.Cleanup(func() { pl.Close() })
			return mounted{
				commit: func(ms []core.Measurement) error { pl.IngestBatch(ms); return nil },
				// The pipeline commits without an fsync: a batch is durable
				// once its log's background syncer has flushed it. Wait until
				// the directory alone replays every committed frame.
				settle: func() {
					pl.Drain()
					deadline := time.Now().Add(10 * time.Second)
					for i, st := range pl.WALStats() {
						for {
							_, info, err := durable.Recover(durable.Options{Dir: durable.ShardDir(dir, i)})
							if err != nil {
								t.Fatal(err)
							}
							if info.LastSeq >= st.LastSeq {
								break
							}
							if time.Now().After(deadline) {
								t.Fatalf("shard %d: syncer never made seq %d durable (disk has %d)", i, st.LastSeq, info.LastSeq)
							}
							time.Sleep(5 * time.Millisecond)
						}
					}
				},
				abandon:   func() {},
				canonical: func() []byte { pl.Drain(); return pl.Merge(0).AppendSnapshot(nil) },
				close:     pl.Close,
			}, nil
		},
	},
	{
		name: "cluster",
		root: func(dir string) string { return filepath.Join(dir, "own") },
		open: func(t *testing.T, dir string, shards int) (mounted, error) {
			n, err := Open(Config{
				ID: "solo", Members: []Member{{ID: "solo", URL: "http://127.0.0.1:1"}},
				DataDir: dir, Shards: shards,
			})
			if err != nil {
				return mounted{}, err
			}
			return mounted{
				commit:    n.IngestBatch, // returns after the fsync: acked means durable
				settle:    func() {},
				abandon:   n.Kill,
				canonical: func() []byte { return n.MergeLocal().AppendSnapshot(nil) },
				close:     n.Close,
			}, nil
		},
	},
}

// controlSnapshot is the sequential control: one store, every
// measurement in order.
func controlSnapshot(batches [][]core.Measurement) []byte {
	db := store.New(0)
	for _, b := range batches {
		for _, m := range b {
			db.Ingest(m)
		}
	}
	return store.Merge(0, db).AppendSnapshot(nil)
}

// newestSegment returns the last WAL segment of a shard directory.
func newestSegment(t *testing.T, shardDir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(shardDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment under %s (%v)", shardDir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestShardConformanceAcrossMounts: commit N batches, crash without
// Close, reboot — the recovered stores must equal a sequential control
// over exactly the acked batches, with and without a torn final frame,
// and the rebooted mount must keep committing on top.
func TestShardConformanceAcrossMounts(t *testing.T) {
	const shards = 2
	var batches [][]core.Measurement
	for i := 0; i < 6; i++ {
		batches = append(batches, testMeasurements(40, uint64(100+i)))
	}
	acked, extra := batches[:5], batches[5]

	for _, mt := range shardMounts {
		for _, torn := range []bool{false, true} {
			name := mt.name + "/clean-tail"
			if torn {
				name = mt.name + "/torn-tail"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				m, err := mt.open(t, dir, shards)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range acked {
					if err := m.commit(b); err != nil {
						t.Fatal(err)
					}
				}
				m.settle()
				m.abandon()

				if torn {
					// A frame header promising 64 bytes followed by 3: what a
					// crash mid-write leaves behind.
					seg := newestSegment(t, durable.ShardDir(mt.root(dir), 0))
					f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}

				m2, err := mt.open(t, dir, shards)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m2.canonical(), controlSnapshot(acked)) {
					t.Fatal("recovered stores differ from the sequential control over the acked batches")
				}
				if err := m2.commit(extra); err != nil {
					t.Fatal(err)
				}
				m2.settle()
				if !bytes.Equal(m2.canonical(), controlSnapshot(batches)) {
					t.Fatal("rebooted mount diverged from the control after committing on top of the recovery")
				}
				if err := m2.close(); err != nil {
					t.Fatal(err)
				}
				m3, err := mt.open(t, dir, shards)
				if err != nil {
					t.Fatal(err)
				}
				defer m3.close()
				if !bytes.Equal(m3.canonical(), controlSnapshot(batches)) {
					t.Fatal("clean reboot differs from the control")
				}
			})
		}
	}
}

// allStacks dumps every goroutine's stack.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// syncerGoroutines counts running WAL background syncers.
func syncerGoroutines() int {
	return strings.Count(allStacks(), "durable.(*Log).syncLoop")
}

// openFilesUnder lists this process's open descriptors that point below
// dir (Linux only; elsewhere it sees nothing and the check is vacuous).
func openFilesUnder(dir string) []string {
	var open []string
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestBootFailureClosesOpenedShards: when shard 2 of 4 cannot be opened,
// the boot must fail naming it and leave nothing of shards 0-1 behind —
// no syncer goroutine, no open segment file. (A corrupt segment header
// is repaired, not refused, so the failure is forced with a segment
// that cannot be read at all.)
func TestBootFailureClosesOpenedShards(t *testing.T) {
	const shards = 4
	for _, mt := range shardMounts {
		t.Run(mt.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := mt.open(t, dir, shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.commit(testMeasurements(200, 7)); err != nil {
				t.Fatal(err)
			}
			m.settle()
			if err := m.close(); err != nil {
				t.Fatal(err)
			}

			seg := newestSegment(t, durable.ShardDir(mt.root(dir), 2))
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(seg, 0o777); err != nil {
				t.Fatal(err)
			}

			syncers := syncerGoroutines()
			if _, err := mt.open(t, dir, shards); err == nil || !strings.Contains(err.Error(), "shard 2") {
				t.Fatalf("boot over an unreadable shard 2 returned %v, want an error naming shard 2", err)
			}
			// Close waits for its syncer to signal, not to unwind: give a
			// just-stopped goroutine a moment to leave the stack dump.
			for deadline := time.Now().Add(5 * time.Second); syncerGoroutines() > syncers && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := syncerGoroutines(); got > syncers {
				t.Errorf("%d syncer goroutines survive the failed boot", got-syncers)
			}
			if open := openFilesUnder(dir); len(open) != 0 {
				t.Errorf("failed boot left files open: %v", open)
			}
		})
	}
}

// TestNodeWALStats: cluster mode exposes the same per-shard WAL
// accounting the pipeline does, and it accounts for every acked frame.
func TestNodeWALStats(t *testing.T) {
	n, err := Open(Config{
		ID: "solo", Members: []Member{{ID: "solo", URL: "http://127.0.0.1:1"}},
		DataDir: t.TempDir(), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ms := testMeasurements(120, 23)
	if err := n.IngestBatch(ms); err != nil {
		t.Fatal(err)
	}
	stats := n.WALStats()
	if len(stats) != 2 {
		t.Fatalf("%d WAL stats, want one per shard", len(stats))
	}
	var frames, fsyncs uint64
	for _, st := range stats {
		frames += st.AppendedFrames
		fsyncs += st.Fsyncs
	}
	if frames != uint64(len(ms)) || fsyncs == 0 {
		t.Fatalf("WAL stats account for %d frames and %d fsyncs, want %d frames and at least one fsync", frames, fsyncs, len(ms))
	}
}
