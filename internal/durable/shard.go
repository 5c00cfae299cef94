package durable

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tlsfof/internal/core"
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
	// that commit's traced row IDs, under the shard lock, until Commit
	// files them as one trace record.
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

// OpenShards boots the n shards rooted at root: each shard directory is
// read once — the reading that rebuilds its store (snapshot plus usable
// tail) also repairs the directory and finds the append point — and
// opened for appending; opt supplies everything but Dir. When shard k
// fails, shards 0..k-1 are closed before the error returns, so a failed
// boot leaves no open segment and no syncer.
func OpenShards(root string, n int, opt Options) ([]*Shard, []Info, error) {
	shards := make([]*Shard, 0, n)
	infos := make([]Info, 0, n)
	for i := 0; i < n; i++ {
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
	return shards, infos, nil
}

// LogRecovery files one slog record for each of a boot's shards that
// found anything on disk: "shard recovered (snapshot S, R replayed)"
// with args, then the shard index and its last applied seq — at Info, or
// at Warn with the reason as err when the log ended in damage and its
// tail was dropped.
func LogRecovery(infos []Info, args ...any) {
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

// Commit writes b ahead as one batch frame (more when it is too big for
// one), fsyncs when sync is set, applies it to the store — clean rows as
// one store add per (tuple, country) cell, proxied rows one by one — and
// returns the last sequence number written (0 on a memory-only shard).
// The caller holds the shard lock. b is only read. On error the store is
// untouched. An unframable batch frames nothing; a write, rotation or
// fsync error may leave a prefix of its frames written (see Log.commit).
// Either way the stages observed since the last Commit are filed once,
// as one Tracer.FileBatch record keyed by b.Trace and linked from each
// traced row of b: one tracer lock and the same spans however many rows
// are traced. A batch without a trace files nothing.
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

// fileSpans files the observed stages as one record keyed by b.Trace
// that links b's traced rows, then empties both buffers.
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
