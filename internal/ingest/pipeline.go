package ingest

import (
	"cmp"
	"math"
	"slices"
	"sync"
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
	// BatchSize is inert: every request commits before Deliver returns;
	// kept only because bench/server.go names it; remove in the next
	// benchmark PR.
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
	return cfg
}

// Stats is a point-in-time snapshot of pipeline accounting, summed over
// shards.
type Stats struct {
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

// shard is the pipeline's mount of the shard engine: the engine plus a
// scratch batch and counters, all guarded by the engine's lock.
type shard struct {
	*durable.Shard

	// batch holds the shard's share of the request being committed,
	// reused across commits — a commit is synchronous, so nothing
	// references it once it returns.
	batch    core.Batch
	ingested uint64
	walErrs  uint64
}

// commit commits the shard's batch and empties it. The caller holds the
// shard lock and began waiting for it at queuedAt.
func (sh *shard) commit(queuedAt time.Time) {
	b, n := &sh.batch, sh.batch.Count()
	sh.Observe(telemetry.StageQueue, queuedAt)
	if _, err := sh.Commit(b, false); err != nil {
		// Append errors degrade durability, never availability: the batch
		// is counted and still reaches the store.
		sh.walErrs += n
		sh.DB.AddBatch(b)
	}
	sh.ingested += n
	b.Reset(0, 0)
}

// Pipeline is the sharded ingest front: it hashes each measurement to a
// shard and commits each shard's share of a call on the caller's
// goroutine (WAL append, then store apply, under the shard lock) before
// the call returns. It is a core.Sink (one measurement at a time), a
// BatchSink and a core.BatchCommitter (a request's batch, split by
// shard); producers may call any of them concurrently. It starts no
// goroutines of its own. Close closes the shard WALs.
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
	engines, infos, err := durable.OpenShards(cfg.WALDir, cfg.Shards, "", durable.Options{})
	if err != nil {
		return nil, nil, err
	}
	return newPipeline(cfg, engines), infos, nil
}

func newPipeline(cfg Config, engines []*durable.Shard) *Pipeline {
	p := &Pipeline{cfg: cfg, shards: make([]*shard, len(engines))}
	for i, e := range engines {
		e.Tracer = cfg.Tracer
		p.shards[i] = &shard{Shard: e}
	}
	return p
}

// stageStart reads the clock only when a tracer will consume it.
func stageStart(tr *telemetry.Tracer) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// Ingest implements core.Sink: a one-row Deliver.
func (p *Pipeline) Ingest(m core.Measurement) {
	sh := p.shards[durable.ShardOf(m.Host, len(p.shards))]
	queuedAt := stageStart(p.cfg.Tracer)
	sh.Lock()
	sh.batch.Add(&m)
	sh.commit(queuedAt)
	sh.Unlock()
}

// batchPool recycles IngestBatch's batches.
var batchPool = sync.Pool{New: func() any { return new(core.Batch) }}

// IngestBatch implements BatchSink: it adds the measurements to one batch
// in order and delivers that, so a shard's lock and the tracer's clock
// are taken once per touched shard, not once per measurement.
func (p *Pipeline) IngestBatch(ms []core.Measurement) {
	b := batchPool.Get().(*core.Batch)
	for i := range ms {
		b.Add(&ms[i])
	}
	p.Deliver(b)
	b.Reset(0, 0)
	batchPool.Put(b)
}

// Deliver implements core.BatchCommitter: b's rows are split by shard,
// in b's order within a shard, and each touched shard commits its share
// under one lock acquisition before Deliver returns — one WAL append (no
// fsync: the log's syncer bounds the time to disk) and one store apply.
// b's folds of a shard are linked from its commit's trace record, and
// name the commit's trace when no row did.
// It never fails: a WAL append error degrades durability, not
// availability, and is counted in Stats.
func (p *Pipeline) Deliver(b *core.Batch) error {
	part := make([]int32, 0, 64) // part[t]: the shard of tuple t
	for i := range b.Tuples {
		part = append(part, int32(durable.ShardOf(b.Tuples[i].Host, len(p.shards))))
	}
	for s, sh := range p.shards {
		if !slices.Contains(part, int32(s)) {
			continue
		}
		queuedAt := stageStart(p.cfg.Tracer)
		sh.Lock()
		for _, r := range b.Rows {
			if part[r.Tuple] == int32(s) {
				sh.batch.AddFrom(b, r)
			}
		}
		for _, f := range b.Folds {
			if part[f.Tuple] == int32(s) {
				sh.Link(f.Trace)
				sh.batch.Trace = cmp.Or(sh.batch.Trace, f.Trace)
			}
		}
		sh.commit(queuedAt)
		sh.Unlock()
	}
	return nil
}

// Drain is inert: nothing is ever pending; kept only because
// bench/livewire.go and bench/reportd.go name it; remove in the next
// benchmark PR.
func (p *Pipeline) Drain() {}

// Close closes the shard WALs (final fsync). It is idempotent (so is
// closing a log); the returned error is the first WAL close failure (nil
// without WALs). Producers should have stopped: a measurement ingested
// after Close still reaches its shard store, and on a durable pipeline
// it is counted in WALErrors because its append is refused.
func (p *Pipeline) Close() error {
	var first error
	for _, sh := range p.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint folds every shard WAL into its snapshot, bounding disk while
// the pipeline keeps serving; nobody tails these WALs, so nothing bounds
// the fold.
func (p *Pipeline) Checkpoint() (err error) {
	for i, sh := range p.shards {
		err = cmp.Or(err, durable.CheckpointLog(sh.Log, math.MaxUint64, "shard", i))
	}
	return err
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
// store.Merge), covering every measurement whose delivery has returned.
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
		s.Ingested += sh.ingested
		s.WALErrors += sh.walErrs
		sh.Unlock()
	}
	return s
}
