package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of independent ingest partitions (1 when <= 0).
	Shards int
	// BatchSize is the commit unit: measurements buffer per shard and
	// commit once this many are pending (DefaultBatchSize when <= 0).
	BatchSize int
	// QueueDepth is inert: no queue exists; kept only because
	// bench/server.go names it; remove in the next benchmark PR.
	QueueDepth int
	// Block is inert: no queue exists, so nothing can fill and nothing is
	// ever dropped; kept only because bench/server.go and bench/study.go
	// name it; remove in the next benchmark PR.
	Block bool
	// WALDir, honored by OpenPipeline, roots one durable WAL per shard
	// (shard-%03d subdirectories, internal/durable). Each batch is
	// appended to its shard's WAL before it reaches the shard store, and
	// OpenPipeline recovers the shard stores from disk on boot. Commits
	// never fsync; each log's background syncer bounds the loss window
	// and Close makes everything durable.
	WALDir string
	// Tracer, when non-nil, records shard_queue / wal_append /
	// store_merge stage latencies per batch and keeps per-probe traces
	// alive through the pipeline for measurements carrying a trace ID.
	// Nil keeps the data path free of clock reads.
	Tracer *telemetry.Tracer
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 1024 {
		// Far beyond any useful core count, and keeps every shard index
		// below IngestBatch's uint16 "routed" marker.
		cfg.Shards = 1024
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	return cfg
}

// Stats is a point-in-time snapshot of pipeline accounting, summed over
// shards; each shard is read under its lock, so Ingested <= Enqueued in
// every snapshot.
type Stats struct {
	// Enqueued counts measurements accepted by the shards: committed plus
	// still pending.
	Enqueued uint64
	// Ingested counts measurements committed to the shard stores.
	Ingested uint64
	// Dropped is inert (always 0): nothing is ever dropped; kept only
	// because bench/server.go and bench/study.go name it; remove in the
	// next benchmark PR.
	Dropped uint64
	// WALErrors counts measurements whose write-ahead append failed
	// (they still reached the store: availability over durability).
	WALErrors uint64
}

// shard is the pipeline's mount of the shard engine: the engine plus the
// pending buffer and counters, all guarded by the engine's lock.
type shard struct {
	*durable.Shard

	// pending has capacity BatchSize and is reused across commits — a
	// commit is synchronous, so nothing references the buffer once it
	// returns. Slots past len keep stale measurements until overwritten;
	// that pins at most BatchSize measurements' strings per shard.
	pending  []core.Measurement
	ingested uint64
	walErrs  uint64
}

// commitPending commits the pending buffer and empties it. The caller
// holds the shard lock and began waiting for it at queuedAt.
func (sh *shard) commitPending(queuedAt time.Time) {
	batch := sh.pending
	sh.Observe(telemetry.StageQueue, batch, queuedAt)
	if _, err := sh.Commit(batch, false); err != nil {
		// Append errors degrade durability, never availability: the batch
		// is counted and still reaches the store.
		sh.walErrs += uint64(len(batch))
		sh.DB.IngestBatch(batch)
	}
	sh.ingested += uint64(len(batch))
	sh.pending = batch[:0]
}

// Pipeline is the sharded ingest front: it hashes each measurement to a
// shard, buffers per shard, and commits full buffers on the caller's
// goroutine (WAL append, then store apply, under the shard lock). It is
// both a core.Sink (one measurement at a time) and a BatchSink /
// core.BatchCommitter (a batch, split by shard); producers may call any
// of them concurrently. It starts no goroutines of its own. Drain commits
// partial buffers; Close drains and closes the shard WALs.
type Pipeline struct {
	cfg    Config
	shards []*shard
}

// NewPipeline builds a pipeline over memory-only shards. Config.WALDir
// is ignored here — use OpenPipeline for the durable path.
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	engines := make([]*durable.Shard, cfg.Shards)
	for i := range engines {
		engines[i] = durable.NewMemShard()
	}
	return newPipeline(cfg, engines)
}

// OpenPipeline is NewPipeline plus the persistence plane: with
// Config.WALDir set it recovers each shard store from its WAL directory
// (snapshot + surviving tail) and returns the per-shard recovery
// reports. Shard count is pinned by a manifest in WALDir — the hash
// partition must not move between runs, or replayed aggregates would
// land on the wrong shard's WAL.
func OpenPipeline(cfg Config) (*Pipeline, []durable.Info, error) {
	if cfg.WALDir == "" {
		return NewPipeline(cfg), nil, nil
	}
	cfg = cfg.withDefaults()
	if err := PinShardManifest(cfg.WALDir, cfg.Shards, ""); err != nil {
		return nil, nil, err
	}
	engines, infos, err := durable.OpenShards(cfg.WALDir, cfg.Shards, durable.Options{})
	if err != nil {
		return nil, nil, err
	}
	return newPipeline(cfg, engines), infos, nil
}

func newPipeline(cfg Config, engines []*durable.Shard) *Pipeline {
	p := &Pipeline{cfg: cfg, shards: make([]*shard, len(engines))}
	for i, e := range engines {
		e.Tracer = cfg.Tracer
		p.shards[i] = &shard{Shard: e, pending: make([]core.Measurement, 0, cfg.BatchSize)}
	}
	return p
}

// shardManifest pins the WAL directory to one shard layout and, in
// cluster mode, to one node identity.
type shardManifest struct {
	Shards int    `json:"shards"`
	Node   string `json:"node,omitempty"`
}

// PinShardManifest pins dir to a shard count and (when node is
// non-empty) a cluster node identity, writing the manifest on first use
// and refusing any later open that disagrees: a changed shard count
// would silently move the hash partition, and a shard directory grafted
// onto a different node would double-count its frames after a replica
// recovery.
func PinShardManifest(dir string, shards int, node string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	b, err := os.ReadFile(path)
	if err == nil {
		var m shardManifest
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("ingest: %s: %w", path, err)
		}
		if m.Shards != shards {
			return fmt.Errorf("ingest: %s was written with %d shards, refusing to open with %d (the hash partition would move)", dir, m.Shards, shards)
		}
		if m.Node != node {
			return fmt.Errorf("ingest: %s was written by node %q, refusing to open as node %q", dir, m.Node, node)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("ingest: %w", err)
	}
	b, _ = json.Marshal(shardManifest{Shards: shards, Node: node})
	if err := os.WriteFile(path, append(b, '\n'), 0o666); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// stageStart reads the clock only when a tracer will consume it.
func stageStart(tr *telemetry.Tracer) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// ShardOf maps a probed host to one of n shards: 32-bit FNV-1a of the
// name. The host set is small and hot (1 or 18 hosts in the studies), so
// this keeps each host's aggregates on one shard and needs no
// cross-shard coordination for per-host tables. The pipeline and the
// cluster node both partition with it, and the shard manifest pins its
// result on disk — it must never change.
func ShardOf(host string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Ingest implements core.Sink: it appends m to its shard's pending
// buffer and commits the buffer once full.
func (p *Pipeline) Ingest(m core.Measurement) {
	sh := p.shards[ShardOf(m.Host, len(p.shards))]
	queuedAt := stageStart(p.cfg.Tracer)
	sh.Lock()
	sh.pending = append(sh.pending, m)
	if len(sh.pending) >= p.cfg.BatchSize {
		sh.commitPending(queuedAt)
	}
	sh.Unlock()
}

const (
	// splitChunk bounds IngestBatch's on-stack routing table.
	splitChunk = 512
	// routed marks a routing-table slot whose measurement is delivered.
	routed = ^uint16(0)
)

// IngestBatch implements BatchSink: the batch is routed into the
// per-shard pending buffers under one lock acquisition per touched shard
// (per 512-measurement chunk), preserving batch order within a shard.
// The routing table lives on the stack and the batch is only read, so
// the split allocates nothing and the caller may reuse the slice.
func (p *Pipeline) IngestBatch(batch []core.Measurement) {
	var idx [splitChunk]uint16
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), splitChunk)]
		batch = batch[len(chunk):]
		for i := range chunk {
			idx[i] = uint16(ShardOf(chunk[i].Host, len(p.shards)))
		}
		for i := range chunk {
			s := idx[i]
			if s == routed {
				continue
			}
			sh := p.shards[s]
			queuedAt := stageStart(p.cfg.Tracer)
			sh.Lock()
			for j := i; j < len(chunk); j++ {
				if idx[j] != s {
					continue
				}
				idx[j] = routed
				sh.pending = append(sh.pending, chunk[j])
				if len(sh.pending) >= p.cfg.BatchSize {
					sh.commitPending(queuedAt)
				}
			}
			sh.Unlock()
		}
	}
}

// Deliver implements core.BatchCommitter over IngestBatch, so the HTTP
// intake hands a pipeline each request's measurements in one call. It
// never fails: a WAL append error degrades durability, not availability,
// and is counted in Stats.
func (p *Pipeline) Deliver(batch []core.Measurement) error {
	p.IngestBatch(batch)
	return nil
}

// Drain commits every shard's partial pending buffer, so a subsequent
// Merge sees every measurement handed in before the call. Producers may
// keep ingesting concurrently; their later measurements are not waited
// for.
func (p *Pipeline) Drain() {
	for _, sh := range p.shards {
		queuedAt := stageStart(p.cfg.Tracer)
		sh.Lock()
		if len(sh.pending) > 0 {
			sh.commitPending(queuedAt)
		}
		sh.Unlock()
	}
}

// Close drains and closes the shard WALs (final fsync). It is
// idempotent (so is closing a log); the returned error is the first WAL
// close failure (nil without WALs). Producers should have stopped: a
// measurement ingested after Close still reaches its shard store, and on
// a durable pipeline it is counted in WALErrors because its append is
// refused.
func (p *Pipeline) Close() error {
	p.Drain()
	var first error
	for _, sh := range p.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint seals and compacts every shard WAL: each shard's appended
// frames fold into its snapshot and the covered segments are deleted,
// bounding disk while the pipeline keeps serving. Call it on a timer
// (reportd's -snapshot-every) or before shutdown.
func (p *Pipeline) Checkpoint() error {
	var first error
	for _, sh := range p.shards {
		if sh.Log == nil {
			continue
		}
		if _, err := sh.Log.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the shard engines in shard order.
func (p *Pipeline) Shards() []*durable.Shard {
	out := make([]*durable.Shard, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.Shard
	}
	return out
}

// WALStats returns per-shard durable accounting (nil without WALs).
func (p *Pipeline) WALStats() []durable.Stats {
	return durable.WALStats(p.Shards())
}

// Merge folds the shard databases into one deterministic store.DB (see
// store.Merge). After Drain or Close the result covers everything handed
// in; otherwise it misses what is still pending.
func (p *Pipeline) Merge(retainLimit int) *store.DB {
	dbs := make([]*store.DB, len(p.shards))
	for i, sh := range p.shards {
		dbs[i] = sh.DB
	}
	return store.Merge(retainLimit, dbs...)
}

// MountMetrics bridges the pipeline's accounting into a telemetry
// registry as scrape-time gauges, so the unified /metrics exposition
// carries ingest totals without double counting.
func (p *Pipeline) MountMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("ingest_enqueued_total", "measurements accepted by the shards (committed or pending)", func() float64 {
		return float64(p.Stats().Enqueued)
	})
	reg.GaugeFunc("ingest_ingested_total", "measurements committed to shard stores", func() float64 {
		return float64(p.Stats().Ingested)
	})
	reg.GaugeFunc("ingest_wal_errors_total", "measurements whose write-ahead append failed", func() float64 {
		return float64(p.Stats().WALErrors)
	})
}

// Stats snapshots the ingest accounting.
func (p *Pipeline) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		sh.Lock()
		s.Enqueued += sh.ingested + uint64(len(sh.pending))
		s.Ingested += sh.ingested
		s.WALErrors += sh.walErrs
		sh.Unlock()
	}
	return s
}
