package durable

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// Shard is one ingest partition: a WAL, the store that WAL rebuilds, and
// the one lock a batch commits under. It is the single shard engine:
// ingest.Pipeline and cluster.Node both mount it and differ only in
// policy — the pipeline commits each request without an fsync (the
// log's background syncer bounds the loss window), the cluster fsyncs
// every batch and, with the lock released again, holds the ack until its
// replica confirms.
//
// Log, DB and Tracer are set at boot and read-only afterwards.
type Shard struct {
	// Mutex is the commit lock. Commit must be called with it held; a
	// mount keeps whatever per-shard state its policy needs under the
	// same lock (the pipeline's scratch batch, the cluster's published
	// last seq), which is why it is exposed rather than taken inside
	// Commit.
	sync.Mutex
	// Log is the write-ahead log; nil for a memory-only shard.
	Log *Log
	// DB is the aggregate store: on a durable shard, exactly what
	// Recover would rebuild from Log's directory.
	DB *store.DB
	// Tracer, when non-nil, receives the wal_append and store_merge
	// stage of every commit. Nil keeps Commit free of clock reads.
	Tracer *telemetry.Tracer

	// stages buffers the stage spans observed for the next commit and ids
	// the trace IDs it links (Link's, then its traced rows'), under the
	// shard lock, until Commit files them as one trace record.
	stages []telemetry.Span
	ids    []telemetry.TraceID
}

// NewMemShard returns a shard with a store and no log.
func NewMemShard() *Shard {
	return &Shard{DB: store.New(0)}
}

// ShardDir is the directory of shard i under root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// ShardOf maps a probed host to one of n shards: stats.FNV1a of the
// name. The host set is small and hot (1 or 18 hosts in the studies), so
// this keeps each host's aggregates on one shard and needs no
// cross-shard coordination for per-host tables. The pipeline and the
// cluster node both partition with it, and the shard manifest pins its
// result on disk — it must never change.
func ShardOf(host string, n int) int {
	if n == 1 {
		return 0
	}
	return int(stats.FNV1a(host) % uint32(n))
}

// shardManifest pins a directory of shards to one shard layout and, in
// cluster mode, to one node identity.
type shardManifest struct {
	Shards int    `json:"shards"`
	Node   string `json:"node,omitempty"`
}

// pinShardManifest pins root to a shard count and (when node is
// non-empty) a cluster node identity, writing the manifest on first use
// and refusing any later open that disagrees: a changed shard count
// would silently move the hash partition, and a shard directory grafted
// onto a different node would double-count its frames after a replica
// recovery.
func pinShardManifest(root string, shards int, node string) error {
	if err := os.MkdirAll(root, 0o777); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	path := filepath.Join(root, "manifest.json")
	b, err := os.ReadFile(path)
	if err == nil {
		var m shardManifest
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("durable: %s: %w", path, err)
		}
		if m.Shards != shards {
			return fmt.Errorf("durable: %s was written with %d shards, refusing to open with %d (the hash partition would move)", root, m.Shards, shards)
		}
		if m.Node != node {
			return fmt.Errorf("durable: %s was written by node %q, refusing to open as node %q", root, m.Node, node)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("durable: %w", err)
	}
	b, _ = json.Marshal(shardManifest{Shards: shards, Node: node})
	if err := os.WriteFile(path, append(b, '\n'), 0o666); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// OpenShards boots the n shards rooted at root, the one boot path of
// both mounts: it pins the shard manifest (with node, in a cluster), reads
// each shard directory once — the reading that rebuilds its store also
// repairs the directory and finds the append point — opens it for
// appending (opt supplies everything but Dir) and files the recovery
// records (see logRecovery). When shard k fails, shards 0..k-1 are closed
// before the error returns, so a failed boot leaves no open segment and
// no syncer.
func OpenShards(root string, n int, node string, opt Options) ([]*Shard, []Info, error) {
	if err := pinShardManifest(root, n, node); err != nil {
		return nil, nil, err
	}
	shards := make([]*Shard, 0, n)
	infos := make([]Info, 0, n)
	for i := range n {
		opt.Dir = ShardDir(root, i)
		log, s, err := open(opt, true)
		if err != nil {
			for _, sh := range shards {
				sh.Close()
			}
			return nil, nil, fmt.Errorf("durable: shard %d: %w", i, err)
		}
		shards = append(shards, &Shard{Log: log, DB: s.db})
		infos = append(infos, s.info)
	}
	logRecovery(infos, node)
	return shards, infos, nil
}

// OpenLogs pins and opens root's n shard logs as OpenShards does, but
// builds no store and files no record: a cluster node's replica logs,
// which only a recovery reads. A failed open closes the logs before it.
func OpenLogs(root string, n int, node string, opt Options) ([]*Log, error) {
	if err := pinShardManifest(root, n, node); err != nil {
		return nil, err
	}
	logs := make([]*Log, 0, n)
	for i := range n {
		opt.Dir = ShardDir(root, i)
		l, err := Open(opt)
		if err != nil {
			for _, l := range logs {
				l.Close()
			}
			return nil, fmt.Errorf("durable: shard %d: %w", i, err)
		}
		logs = append(logs, l)
	}
	return logs, nil
}

// logRecovery files one slog record for each of a boot's shards that
// found anything on disk: "shard recovered (snapshot S, R replayed)"
// with the node (in cluster mode), the shard index and its last applied
// seq — at Info, or at Warn with the reason as err when the log ended in
// damage and its tail was dropped.
func logRecovery(infos []Info, node string) {
	var args []any
	if node != "" {
		args = []any{"node", node}
	}
	for i, info := range infos {
		if info.Replayed == 0 && info.SnapshotSeq == 0 && !info.DroppedTail {
			continue
		}
		msg := fmt.Sprintf("shard recovered (snapshot %d, %d replayed)", info.SnapshotSeq, info.Replayed)
		kv := append(slices.Clip(args), "shard", i, "seq", info.LastSeq)
		if info.DroppedTail {
			slog.Warn(msg, append(kv, "err", info.Reason)...)
		} else {
			slog.Info(msg, kv...)
		}
	}
}

// CheckpointLog checkpoints l below seq below and files a failure as a
// Warn, args first; it returns the failure. A nil log (a memory-only
// shard) has nothing to fold.
func CheckpointLog(l *Log, below uint64, args ...any) error {
	if l == nil {
		return nil
	}
	_, err := l.Checkpoint(below)
	if err != nil {
		slog.Warn("checkpoint failed", append(args, "err", err)...)
	}
	return err
}

// Commit writes b ahead as one batch frame (more when it is too big for
// one), fsyncs when sync is set, applies it to the store — clean rows as
// one store add per (tuple, country) cell, proxied rows one by one — and
// returns the last sequence number written (0 on a memory-only shard).
// The caller holds the shard lock. b is only read. On error the store is
// untouched. An unframable batch frames nothing; a write, rotation or
// fsync error may leave a prefix of its frames written (see Log.commit).
// Either way the stages observed since the last Commit are filed once,
// as one Tracer.FileBatch record keyed by b.Trace and linked from each
// ID given to Link and each traced row of b: one tracer lock and the
// same spans however many are traced. A batch without a trace files
// nothing.
func (s *Shard) Commit(b *core.Batch, sync bool) (uint64, error) {
	if s.Tracer != nil {
		defer s.fileSpans(b)
	}
	var last uint64
	if s.Log != nil {
		start := s.stageStart()
		var err error
		last, err = s.Log.commit(b, sync)
		s.Observe(telemetry.StageWAL, start)
		if err != nil {
			return 0, err
		}
	}
	start := s.stageStart()
	s.DB.AddBatch(b)
	s.Observe(telemetry.StageStore, start)
	return last, nil
}

// stageStart reads the clock only when a tracer will consume it.
func (s *Shard) stageStart() time.Time {
	if s.Tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// Observe records one per-batch stage that began at start: the stage
// histogram now, and the span for the next Commit to file with its
// batch. The caller holds the shard lock. It is a no-op without a
// tracer.
func (s *Shard) Observe(stage string, start time.Time) {
	if s.Tracer == nil {
		return
	}
	d := time.Since(start)
	s.Tracer.Observe(stage, d)
	s.stages = append(s.stages, telemetry.Span{Stage: stage, Start: start, Duration: d})
}

// Link records the trace ID of a measurement the next committed batch
// holds in a row's count rather than as a row of its own, for that
// Commit to link from its record. The caller holds the shard lock. It
// is a no-op without a tracer.
func (s *Shard) Link(trace uint64) {
	if s.Tracer != nil {
		s.ids = append(s.ids, telemetry.TraceID(trace))
	}
}

// fileSpans files the observed stages as one record keyed by b.Trace
// that links the linked IDs and b's traced rows, then empties both
// buffers.
func (s *Shard) fileSpans(b *core.Batch) {
	if b.Trace != 0 {
		for _, r := range b.Rows {
			if r.Trace != 0 {
				s.ids = append(s.ids, telemetry.TraceID(r.Trace))
			}
		}
		s.Tracer.FileBatch(telemetry.TraceID(b.Trace), s.stages, s.ids)
	}
	s.stages, s.ids = s.stages[:0], s.ids[:0]
}

// Close waits out an in-flight commit, then closes the log (final fsync).
// A memory-only shard has nothing to close.
func (s *Shard) Close() error {
	if s.Log == nil {
		return nil
	}
	s.Lock()
	defer s.Unlock()
	return s.Log.Close()
}

// WALStats returns the accounting of every shard log, in shard order
// (nil when the shards are memory-only).
func WALStats(shards []*Shard) []Stats {
	var out []Stats
	for _, sh := range shards {
		if sh.Log != nil {
			out = append(out, sh.Log.Stats())
		}
	}
	return out
}
