package main

import (
	"fmt"
	"sync"
	"time"

	"tlsfof"
	"tlsfof/internal/adsim"
	"tlsfof/internal/certgen"
	"tlsfof/internal/core"
	"tlsfof/internal/ingest"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
)

// studyShards is cmd/study -shards=4: the same job through the sharded
// ingest pipeline instead of the single store.
const studyShards = 4

// timedStore is the study.Config.Sink shim around store.DB the traced
// phase mounts: it times every Ingest, so generator time and store time
// separate. RunStudy's sequential path calls it from one goroutine.
type timedStore struct {
	db    *store.DB
	n     int64
	first time.Time
	busy  time.Duration
}

func (s *timedStore) Ingest(m core.Measurement) {
	t0 := time.Now()
	if s.n == 0 {
		s.first = t0
	}
	s.db.Ingest(m)
	s.busy += time.Since(t0)
	s.n++
}

// studyRun is one round: RunStudy plus the render of every artifact.
type studyRun struct {
	res    *tlsfof.StudyResult
	hash   tableHash
	render time.Duration
	sink   *timedStore // traced sequential rounds only
	start  time.Time
	ran    time.Duration // RunStudy alone
}

func oneStudyRound(cfg tlsfof.StudyConfig, shim bool) (*studyRun, error) {
	r := &studyRun{start: time.Now()}
	if shim {
		r.sink = &timedStore{db: store.New(cfg.RetainProxied)}
		cfg.Sink = r.sink
	}
	res, err := tlsfof.RunStudy(cfg)
	if err != nil {
		return nil, err
	}
	r.ran = time.Since(r.start)
	if shim {
		res.Store = r.sink.db // a Sink run hands back no store of its own
	}
	t0 := time.Now()
	if r.hash, err = hashStudyTables(res); err != nil {
		return nil, err
	}
	r.render = time.Since(t0)
	r.res = res
	return r, nil
}

func runStudy(cfg runConfig, sharded bool) (*result, error) {
	sz := cfg.sizes()
	w, err := cfg.worldOr(certgen.KeySizes...)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Metrics: metricSet{}}
	goldenErr := checkGolden(w)
	res.check("golden tables at seed 2014 scale 0.01", goldenErr == nil, "%v", goldenErr)

	base := tlsfof.StudyConfig{Study: tlsfof.Study2, Seed: cfg.seed, Scale: sz.studyScale, Pool: w.pool}
	timed := base
	if sharded {
		timed.Shards = studyShards
	}
	// One untimed sequential round first: it mints the named CA keys the
	// seed's products need, and it is the control every timed round of
	// either engine must reproduce.
	control, err := oneStudyRound(base, false)
	if err != nil {
		return nil, err
	}
	want := control.res.Store.Totals()
	res.RoundSize = int64(want.Tested)
	setup := time.Since(processStart)
	cfg.logf("set-up %.2fs, %d tests per round", setup.Seconds(), want.Tested)

	var renders []float64
	var last *studyRun
	var dropped, walErrs uint64
	runPhase := func(rec *recorder) (*phase, error) {
		p := &phase{}
		bud := cfg.budget(true)
		for start := time.Now(); bud.more(len(p.rounds), start); {
			roundID := rec.newID()
			m := startMeter()
			r, err := oneStudyRound(timed, rec != nil && !sharded)
			if err != nil {
				return nil, err
			}
			got := r.res.Store.Totals()
			sample := m.stop(int64(got.Tested))
			p.rounds = append(p.rounds, sample)
			p.ops = append(p.ops, sample.wall)
			p.attempted += int64(want.Tested)
			if got != want || r.hash != control.hash {
				p.failed += int64(want.Tested)
			}
			if st := r.res.IngestStats; st != nil {
				dropped += st.Dropped
				walErrs += st.WALErrors
			}
			if rec == nil {
				renders = append(renders, millis(r.render))
			}
			last = r
			op := uint64(len(p.rounds))
			end := r.start.Add(sample.wall)
			rec.add(spRound, roundID, 0, op, r.start, end)
			runID := rec.newID()
			rec.add(spStudyRun, runID, roundID, op, r.start, r.start.Add(r.ran))
			rec.add(spRender, rec.newID(), roundID, op, r.start.Add(r.ran), r.start.Add(r.ran+r.render))
			if r.sink != nil {
				rec.add(spStudyPrelude, rec.newID(), runID, op, r.start, r.sink.first)
				rec.add(spStoreIngest, rec.newID(), runID, op, r.sink.first, r.sink.first.Add(r.sink.busy))
			}
		}
		return p, nil
	}

	untraced, err := runPhase(nil)
	if err != nil {
		return nil, err
	}
	res.check("every round renders the control's tables and Totals", untraced.failed == 0,
		"%d of %d tests in rounds that diverged from the sequential control", untraced.failed, untraced.attempted)
	res.Metrics.put("analysis.render_ms", median(renders), len(renders))
	res.Metrics.put("store.retained_proxied", float64(len(last.res.Store.ProxiedRecords())), 1)
	if sharded {
		res.Metrics.put("ingest.dropped", float64(dropped), 1)
		res.Metrics.put("ingest.wal_errors", float64(walErrs), 1)
		res.check("pipeline dropped nothing", dropped == 0 && walErrs == 0, "dropped %d, WAL errors %d", dropped, walErrs)
	}

	var traced *phase
	if cfg.trace {
		rec := newRecorder()
		if traced, err = runPhase(rec); err != nil {
			return nil, err
		}
		res.check("traced rounds render the control's tables", traced.failed == 0,
			"%d tests in traced rounds that diverged", traced.failed)
		tot, err := finishTrace(cfg, res, rec.snapshot())
		if err != nil {
			return nil, err
		}
		n, _ := traced.total()
		if !sharded {
			res.Metrics.put("store.ingest_ns_per_measurement", float64(totalNS(tot, spStoreIngest))/float64(n), int(n))
			generate := totalNS(tot, spStudyRun) - totalNS(tot, spStoreIngest)
			res.Metrics.put("study.generate_ns_per_measurement", float64(generate)/float64(n), int(n))
			res.Metrics.put("study.prelude_ms", meanNS(tot, spStudyPrelude)/1e6, len(traced.rounds))
			if err := studySeqIsolated(res, cfg, last.res.Store); err != nil {
				return nil, err
			}
		} else if err := studyShardedIsolated(res, base); err != nil {
			return nil, err
		}
	}
	res.finish(w, setup, untraced, traced)
	return res, nil
}

// studySeqIsolated times the calls the sequential study makes once per
// run, on the run's own final store.
func studySeqIsolated(res *result, cfg runConfig, db *store.DB) error {
	t0 := time.Now()
	if _, _, err := adsim.RunAll(adsim.SecondStudyCampaigns(), stats.NewRNG(cfg.seed)); err != nil {
		return err
	}
	res.Metrics.put("adsim.runall_ms", millis(time.Since(t0)), 1)
	return snapshotIsolated(res, db)
}

// snapshotIsolated times the snapshot codec on db and checks the round
// trip is exact.
func snapshotIsolated(res *result, db *store.DB) error {
	t0 := time.Now()
	image := db.AppendSnapshot(nil)
	res.Metrics.put("store.snapshot_encode_ms", millis(time.Since(t0)), 1)
	res.Metrics.put("store.snapshot_bytes", float64(len(image)), 1)
	t0 = time.Now()
	back, err := store.DecodeSnapshot(image)
	if err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	res.Metrics.put("store.snapshot_decode_ms", millis(time.Since(t0)), 1)
	res.check("snapshot round trip keeps Totals", back.Totals() == db.Totals(), "%+v != %+v", back.Totals(), db.Totals())
	return nil
}

// isolatedStreamScale caps the recorded stream the isolated pipeline
// call replays: 619,178 measurements at seed 2014, about 100 MB.
const isolatedStreamScale = 0.05

// recordStream captures the measurement stream a study run hands its
// sink — what cmd/study -shards feeds the pipeline and what a route
// client feeds a cluster.
func recordStream(cfg tlsfof.StudyConfig) ([]core.Measurement, error) {
	var stream []core.Measurement
	cfg.Sink = core.SinkFunc(func(m core.Measurement) { stream = append(stream, m) })
	if _, err := tlsfof.RunStudy(cfg); err != nil {
		return nil, err
	}
	return stream, nil
}

// studyShardedIsolated replays a recorded stream through the hand-off
// alone — nproc Batchers into a 4-shard pipeline, then the merge — with
// no generator in the way.
func studyShardedIsolated(res *result, base tlsfof.StudyConfig) error {
	base.Scale = min(base.Scale, isolatedStreamScale)
	stream, err := recordStream(base)
	if err != nil {
		return err
	}
	t0 := time.Now()
	pl := ingest.NewPipeline(ingest.Config{Shards: studyShards, Block: true})
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := ingest.NewBatcher(pl, 0)
			for i := w; i < len(stream); i += nproc {
				b.Ingest(stream[i])
			}
			b.Flush()
		}(w)
	}
	wg.Wait()
	if err := pl.Close(); err != nil {
		return err
	}
	res.Metrics.put("ingest.pipeline_ns_per_measurement", float64(time.Since(t0))/float64(len(stream)), len(stream))
	t0 = time.Now()
	merged := pl.Merge(0)
	res.Metrics.put("store.merge_ms", millis(time.Since(t0)), 1)
	res.check("isolated pipeline stores the whole stream", merged.Totals().Tested == len(stream),
		"stored %d of %d", merged.Totals().Tested, len(stream))
	return nil
}
