package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/ingest"
	"tlsfof/internal/stats"
	"tlsfof/internal/x509util"
)

// forgedShare is the paper's headline: 0.41% of tests met a TLS proxy,
// 1 report in 244.
const forgedShare = 244

// reportBatch is the upload unit of the stream: ingest.DefaultClientBatch
// reports, one POST.
const reportBatch = ingest.DefaultClientBatch

// reportStream is one round's pre-captured reports, built in set-up so
// the load generator's timed work is PostReports alone.
type reportStream struct {
	batches [][]ingest.Report
	reports int
	forged  int // reports carrying a substitute chain
}

// buildReportStream draws n reports from the seed: a study-2 host each,
// the authoritative chain for most, and for 1 in 244 the chain one of
// the four live products forges for that host.
func buildReportStream(w *world, seed uint64, n int) (*reportStream, error) {
	engines, err := w.engines()
	if err != nil {
		return nil, err
	}
	forged := make([]map[string][][]byte, len(engines))
	for i, e := range engines {
		forged[i] = make(map[string][][]byte, len(w.hosts))
		for _, h := range w.hosts {
			der := w.auth.Chains[h.Name]
			upstream, err := x509util.ParseChain(der)
			if err != nil {
				return nil, err
			}
			d, err := e.Decide(h.Name, upstream, der)
			if err != nil {
				return nil, fmt.Errorf("forge %s for %s: %w", liveProducts[i], h.Name, err)
			}
			forged[i][h.Name] = d.ChainDER // nil when the product passes the host through
		}
	}
	rng := stats.NewRNG(seed)
	rs := &reportStream{reports: n}
	for len(rs.batches)*reportBatch < n {
		op := uint64(len(rs.batches) + 1)
		size := min(reportBatch, n-len(rs.batches)*reportBatch)
		batch := make([]ingest.Report, size)
		for i := range batch {
			host := w.hosts[rng.Intn(len(w.hosts))].Name
			chain := w.auth.Chains[host]
			if rng.Intn(forgedShare) == 0 {
				if f := forged[rng.Intn(len(forged))][host]; f != nil {
					chain = f
					rs.forged++
				}
			}
			batch[i] = ingest.Report{Host: host, ChainDER: chain, Trace: reportTrace(op, i)}
		}
		rs.batches = append(rs.batches, batch)
	}
	return rs, nil
}

// reportdPhase is what one phase leaves behind for the checks and the
// counters.
type reportdPhase struct {
	phase
	drains   []float64 // ms in Drain after the last ack, per round
	accepted uint64
	rejected uint64
	recover  []float64 // µs per stored measurement, per reopen
}

func runReportd(cfg runConfig) (*result, error) {
	sz := cfg.sizes()
	w, err := cfg.worldOr(1024, 2048)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, RoundSize: int64(sz.reports), Metrics: metricSet{}}
	goldenErr := checkGolden(w)
	res.check("golden tables at seed 2014 scale 0.01", goldenErr == nil, "%v", goldenErr)
	stream, err := buildReportStream(w, cfg.seed, sz.reports)
	if err != nil {
		return nil, err
	}
	setup := time.Since(processStart)
	cfg.logf("set-up %.2fs, %d reports per round in %d batches, %d forged", setup.Seconds(), stream.reports, len(stream.batches), stream.forged)

	untraced, err := reportdRun(cfg, w, stream, nil, res)
	if err != nil {
		return nil, err
	}
	sorted := untraced.ops.sorted()
	res.Metrics.put("ingest.post_p99_us", sorted.quantileUS(0.99), len(sorted))
	res.Metrics.put("ingest.post_p999_us", sorted.quantileUS(0.999), len(sorted))
	res.Metrics.put("ingest.drain_ms", median(untraced.drains), len(untraced.drains))
	res.Metrics.put("durable.recover_us_per_measurement", median(untraced.recover), len(untraced.recover))

	var traced *phase
	if cfg.trace {
		rec := newRecorder()
		tp, err := reportdRun(cfg, w, stream, rec, res)
		if err != nil {
			return nil, err
		}
		traced = &tp.phase
		tot, err := finishTrace(cfg, res, rec.snapshot())
		if err != nil {
			return nil, err
		}
		n, _ := traced.total()
		res.Metrics.put("ingest.handler_us_per_report", float64(totalNS(tot, spBatchHandler))/1e3/float64(n), int(n))
		res.Metrics.put("ingest.sink_us_per_report", float64(totalNS(tot, spSink))/1e3/float64(n), int(n))
		res.Metrics.put("bench.unattributed_share", unattributedShare(tot), tot[spPostOp].Count)
		if err := reportdIsolated(cfg, w, stream, res); err != nil {
			return nil, err
		}
	}
	res.finish(w, setup, &untraced.phase, traced)
	return res, nil
}

// reportdRun boots the server stack over a fresh WAL directory, posts
// the stream round after round from nproc connections, then closes and —
// in the untraced phase — reopens the pipeline three times to time
// recovery and to prove the WAL holds exactly what was stored.
func reportdRun(cfg runConfig, w *world, stream *reportStream, rec *recorder, res *result) (*reportdPhase, error) {
	walDir, err := cfg.scratch.dir("reportd-wal")
	if err != nil {
		return nil, err
	}
	srv, err := startReportServer(w, walDir, "reportd-stream", rec, len(stream.batches))
	if err != nil {
		return nil, err
	}
	type worker struct {
		client   *ingest.Client
		op, span atomic.Uint64
		lat      latencies
		err      error
	}
	workers := make([]*worker, nproc)
	for i := range workers {
		wk := &worker{client: ingest.NewClient(srv.url)}
		// One connection per worker: the stream arrives on nproc
		// connections, never more.
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		wk.client.HTTPClient = &http.Client{Transport: tr}
		if rec != nil {
			wk.client.HTTPClient.Transport = &spanTransport{base: tr, rec: rec, op: &wk.op, span: &wk.span}
		}
		workers[i] = wk
	}

	p := &reportdPhase{}
	bud := cfg.budget(false)
	for start := time.Now(); bud.more(len(p.rounds), start); {
		var next atomic.Int64
		var wg sync.WaitGroup
		roundID := rec.newID()
		roundStart := rec.now()
		m := startMeter()
		for _, wk := range workers {
			wg.Add(1)
			go func(wk *worker) {
				defer wg.Done()
				for wk.err == nil {
					i := int(next.Add(1)) - 1
					if i >= len(stream.batches) {
						return
					}
					opID := rec.newID()
					wk.op.Store(uint64(i + 1))
					wk.span.Store(opID)
					t0 := time.Now()
					wk.err = wk.client.PostReports(stream.batches[i])
					t1 := time.Now()
					wk.lat = append(wk.lat, t1.Sub(t0))
					rec.add(spPostOp, opID, roundID, uint64(i+1), t0, t1)
				}
			}(wk)
		}
		wg.Wait()
		acked := time.Now()
		srv.pipeline.Drain()
		sample := m.stop(int64(stream.reports))
		p.drains = append(p.drains, millis(time.Since(acked)))
		p.rounds = append(p.rounds, sample)
		p.attempted += int64(stream.reports)
		rec.add(spRound, roundID, 0, uint64(len(p.rounds)), roundStart, rec.now())
		for _, wk := range workers {
			if wk.err != nil {
				return nil, fmt.Errorf("post: %w", wk.err)
			}
		}
	}
	for _, wk := range workers {
		p.ops = append(p.ops, wk.lat...)
		st := wk.client.Stats()
		p.accepted += st.Accepted
		p.rejected += st.Rejected
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	rounds := int64(len(p.rounds))
	sent := rounds * int64(stream.reports)
	live := srv.pipeline.Merge(0)
	tot := live.Totals()
	missing := abs64(sent-int64(p.accepted)) + int64(p.rejected) + abs64(sent-int64(tot.Tested))
	p.failed = missing
	label := rec.phaseLabel()
	res.check(label+": accepted == sent, rejected == 0, stored == sent", missing == 0,
		"sent %d, accepted %d, rejected %d, stored %d", sent, p.accepted, p.rejected, tot.Tested)
	res.check(label+": proxied == forged reports sent", int64(tot.Proxied) == rounds*int64(stream.forged),
		"proxied %d, forged sent %d", tot.Proxied, rounds*int64(stream.forged))
	if rec == nil {
		srv.serverCounters(res)
		walCounters(res.Metrics, srv.pipeline.WALStats(), sent, true)
	}
	before := canonical(live)
	if err := srv.pipeline.Close(); err != nil {
		return nil, fmt.Errorf("close pipeline: %w", err)
	}
	if rec != nil {
		return p, nil
	}
	// Recovery reads what append wrote: reopen the same directory, time
	// the boot, and require the recovered store to equal the one closed.
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		pl, _, err := ingest.OpenPipeline(pipelineConfig(walDir, nil))
		if err != nil {
			return nil, fmt.Errorf("reopen %d: %w", i, err)
		}
		p.recover = append(p.recover, float64(time.Since(t0))/1e3/float64(sent))
		same := bytes.Equal(canonical(pl.Merge(0)), before)
		res.check(fmt.Sprintf("reopen %d recovers the pre-close store", i+1), same, "recovered store differs from the store closed")
		if !same {
			p.failed += sent
		}
		if err := pl.Close(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// isolatedBatches bounds the isolated calls to the stream's first
// batches: 256,000 reports is enough for a steady per-report mean.
const isolatedBatches = 1000

// reportdIsolated times single layers on the stream's own batches, one
// call at a time on one goroutine: the wire codec both ways, the
// collector into a discard sink, and the WAL append.
func reportdIsolated(cfg runConfig, w *world, stream *reportStream, res *result) error {
	batches := stream.batches[:min(len(stream.batches), isolatedBatches)]
	// Encode and decode alternate over one reused body buffer and one
	// arena, as the upload client's pool and the handler's decode state
	// reuse theirs.
	var n, wire, decoded int
	var encode, decode time.Duration
	var body []byte
	arena := ingest.NewArena()
	dec := ingest.NewArenaDecoder(nil, arena)
	for _, b := range batches {
		t0 := time.Now()
		var err error
		if body, err = ingest.AppendReports(body[:0], b); err != nil {
			return err
		}
		t1 := time.Now()
		dec.Reset(bytes.NewReader(body))
		for {
			if _, err := dec.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return fmt.Errorf("isolated decode: %w", err)
			}
			decoded++
		}
		arena.Reset()
		encode += t1.Sub(t0)
		decode += time.Since(t1)
		n += len(b)
		wire += len(body)
	}
	res.Metrics.put("ingest.encode_ns_per_report", float64(encode)/float64(n), n)
	res.Metrics.put("ingest.decode_ns_per_report", float64(decode)/float64(n), n)
	res.Metrics.put("ingest.bytes_per_report", float64(wire)/float64(n), n)
	res.check("isolated decode reads back every report", decoded == n, "decoded %d of %d", decoded, n)

	// The collector with its observation cache, as reportd mounts it,
	// into a sink that only keeps the measurements for the append below.
	ms := make([]core.Measurement, 0, n)
	col := w.newCollector(core.SinkFunc(func(m core.Measurement) { ms = append(ms, m) }), "isolated")
	col.Cache = core.NewObservationCache(0, 0)
	t0 := time.Now()
	for _, b := range batches {
		for _, r := range b {
			if _, err := col.IngestTraced(0, r.Host, r.ChainDER, col.Campaign, r.Trace); err != nil {
				return fmt.Errorf("isolated collector: %w", err)
			}
		}
	}
	res.Metrics.put("core.collector_ns_per_report", float64(time.Since(t0))/float64(n), n)

	dir, err := cfg.scratch.dir("isolated-wal")
	if err != nil {
		return err
	}
	t0 = time.Now()
	log, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return err
	}
	for i := 0; i < len(ms); i += reportBatch {
		if err := log.AppendBatch(ms[i:min(i+reportBatch, len(ms))]); err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	res.Metrics.put("durable.append_ns_per_measurement", float64(time.Since(t0))/float64(n), n)
	return nil
}
