package durable

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// Shard is one ingest partition: a WAL, the store that WAL rebuilds, and
// the one lock a batch commits under. It is the single shard engine:
// ingest.Pipeline and cluster.Node both mount it and differ only in
// policy — the pipeline buffers per shard and commits without an fsync
// (the log's background syncer bounds the loss window), the cluster
// fsyncs every batch and, with the lock released again, holds the ack
// until its replica confirms.
//
// Log, DB and Tracer are set at boot and read-only afterwards.
type Shard struct {
	// Mutex is the commit lock. Commit must be called with it held; a
	// mount keeps whatever per-shard state its policy needs under the
	// same lock (the pipeline's pending buffer, the cluster's published
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

// Commit write-aheads ms, fsyncs when sync is set, applies ms to the
// store, and returns the last sequence number written (0 on a
// memory-only shard). The caller holds the shard lock. ms is only read.
// On error the store is untouched; a prefix of ms may have been framed.
func (s *Shard) Commit(ms []core.Measurement, sync bool) (uint64, error) {
	var last uint64
	if s.Log != nil {
		start := s.stageStart()
		var err error
		last, err = s.Log.commit(ms, sync)
		s.Observe(telemetry.StageWAL, ms, start)
		if err != nil {
			return 0, err
		}
	}
	start := s.stageStart()
	s.DB.IngestBatch(ms)
	s.Observe(telemetry.StageStore, ms, start)
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
// histogram once, plus a span on every traced measurement in ms. It is a
// no-op without a tracer.
func (s *Shard) Observe(stage string, ms []core.Measurement, start time.Time) {
	if s.Tracer == nil {
		return
	}
	d := time.Since(start)
	s.Tracer.Observe(stage, d)
	for i := range ms {
		if t := ms[i].Trace; t != 0 {
			s.Tracer.RecordSpan(telemetry.TraceID(t), stage, start, d)
		}
	}
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
