package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tlsfof"
	"tlsfof/internal/certgen"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// The cluster path: a recorded study-2 measurement stream replayed
// through one cluster.RouteClient into a three-node in-process cluster
// over loopback HTTP — the only workload through cluster.Node's
// fsync-per-batch commit, the semi-synchronous replica-ack wait,
// durable.ServeTail and the cross-node snapshot merge.

var clusterIDs = []string{"a", "b", "c"}

// clusterShards is cmd/reportd's -shards default, which cluster mode
// inherits.
const clusterShards = 4

// liveCluster is the nodes of one round, each mounted the way reportd's
// cluster mode mounts it: cluster.Open with default ack, poll and
// long-poll settings, Start, and the node's handler on /cluster/ and
// /repl/ of a real listener.
type liveCluster struct {
	members []cluster.Member
	nodes   []*cluster.Node
	regs    []*telemetry.Registry
	servers []*http.Server
	dirs    []string
}

func startCluster(cfg runConfig, rec *recorder) (*liveCluster, error) {
	c := &liveCluster{}
	var listeners []net.Listener
	for _, id := range clusterIDs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		c.members = append(c.members, cluster.Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	for i, id := range clusterIDs {
		dir, err := cfg.scratch.dir("cluster-" + id)
		if err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry()
		node, err := cluster.Open(cluster.Config{ID: id, Members: c.members, DataDir: dir, Shards: clusterShards, Registry: reg})
		if err != nil {
			return nil, err
		}
		node.Start()
		var handler http.Handler = node.Handler()
		if rec != nil {
			handler = clusterMiddleware(rec, handler)
		}
		mux := http.NewServeMux()
		mux.Handle("/cluster/", handler)
		mux.Handle("/repl/", handler)
		srv := &http.Server{Handler: mux}
		go srv.Serve(listeners[i])
		c.nodes, c.regs, c.servers, c.dirs = append(c.nodes, node), append(c.regs, reg), append(c.servers, srv), append(c.dirs, dir)
	}
	return c, nil
}

func (c *liveCluster) stop() error {
	var first error
	for _, srv := range c.servers {
		srv.Close()
	}
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// firstWrite notes when a handler first writes its response body: for
// /repl/tail that is when durable.ServeTail starts streaming, after the
// handler's long-poll park.
type firstWrite struct {
	http.ResponseWriter
	at time.Time
}

func (w *firstWrite) Write(p []byte) (int, error) {
	if w.at.IsZero() {
		w.at = time.Now()
	}
	return w.ResponseWriter.Write(p)
}

// clusterMiddleware is the traced phase's shim around a node's handler.
func clusterMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/cluster/ingest":
			parent, op := spanContext(r)
			id, start := rec.newID(), time.Now()
			next.ServeHTTP(w, r)
			rec.add(spClusterIngest, id, parent, op, start, time.Now())
		case "/repl/tail":
			fw := &firstWrite{ResponseWriter: w}
			id, start := rec.newID(), time.Now()
			next.ServeHTTP(fw, r)
			end := time.Now()
			rec.add(spReplTail, id, 0, 0, start, end)
			if !fw.at.IsZero() {
				rec.add(spServeTail, rec.newID(), id, 0, fw.at, end)
			}
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// routeTransport is the RoundTripper passed in RouteConfig.HTTPClient.
// It times every POST /cluster/ingest round trip, replica ack included —
// the workload's end-to-end latency, so it is mounted in both phases;
// only the traced phase records spans and names them to the middleware.
// The route client posts from one goroutine at a time.
type routeTransport struct {
	base http.RoundTripper
	rec  *recorder
	lat  latencies
}

func (t *routeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := uint64(len(t.lat) + 1)
	opID, rtID := t.rec.newID(), t.rec.newID()
	if t.rec != nil {
		setSpanContext(req, rtID, op)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.lat = append(t.lat, end.Sub(start))
	t.rec.add(spRouteOp, opID, 0, op, start, end)
	t.rec.add(spRoundTrip, rtID, opID, op, start, end)
	return resp, err
}

// clusterPhase is what one phase leaves behind.
type clusterPhase struct {
	phase
	route    cluster.RouteStats
	degraded float64
	lag      uint64
	fetch    []float64 // ms: GET /cluster/snapshot x3 + decode, per round
	merge    []float64 // ms: store.Merge over the node snapshots
	walBytes int64     // own-shard WAL bytes on disk, all rounds
	last     *liveCluster
	merged   *store.DB
}

func runCluster(cfg runConfig) (*result, error) {
	sz := cfg.sizes()
	w, err := cfg.worldOr(certgen.KeySizes...)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Metrics: metricSet{}}
	goldenErr := checkGolden(w)
	res.check("golden tables at seed 2014 scale 0.01", goldenErr == nil, "%v", goldenErr)
	stream, err := recordStream(tlsfof.StudyConfig{Study: tlsfof.Study2, Seed: cfg.seed, Scale: sz.clusterScale, Pool: w.pool})
	if err != nil {
		return nil, err
	}
	// The sequential control: the same stream into one plain store.
	control := store.New(0)
	for _, m := range stream {
		control.Ingest(m)
	}
	want := canonical(control)
	res.RoundSize = int64(len(stream))
	setup := time.Since(processStart)
	cfg.logf("set-up %.2fs, %d measurements per round", setup.Seconds(), len(stream))

	untraced, err := clusterRun(cfg, stream, want, nil, res)
	if err != nil {
		return nil, err
	}
	rs := untraced.route
	sorted := untraced.ops.sorted()
	res.Metrics.put("cluster.post_p99_us", sorted.quantileUS(0.99), len(sorted))
	res.Metrics.put("cluster.batches", float64(rs.Batches), 1)
	res.Metrics.put("cluster.retries", float64(rs.Retries), 1)
	res.Metrics.put("cluster.not_owner_retries", float64(rs.NotOwnerRetries), 1)
	res.Metrics.put("cluster.relayed", float64(rs.Relayed), 1)
	res.Metrics.put("cluster.duplicate_acks", float64(rs.DuplicateAcks), 1)
	res.Metrics.put("cluster.lost", float64(rs.Lost), 1)
	res.Metrics.put("cluster.degraded_acks", untraced.degraded, 1)
	res.Metrics.put("cluster.replica_lag_frames", float64(untraced.lag), 1)
	res.Metrics.put("cluster.snapshot_fetch_ms", median(untraced.fetch), len(untraced.fetch))
	res.Metrics.put("store.merge_ms", median(untraced.merge), len(untraced.merge))
	n, _ := untraced.total()
	res.Metrics.put("durable.wal_bytes_per_measurement", float64(untraced.walBytes)/float64(n), int(n))

	var traced *phase
	if cfg.trace {
		rec := newRecorder()
		tp, err := clusterRun(cfg, stream, want, rec, res)
		if err != nil {
			return nil, err
		}
		traced = &tp.phase
		tot, err := finishTrace(cfg, res, rec.snapshot())
		if err != nil {
			return nil, err
		}
		_, wall := traced.total()
		res.Metrics.put("cluster.ingest_handler_ms_per_batch", meanNS(tot, spClusterIngest)/1e6, tot[spClusterIngest].Count)
		tails := 0
		if t := tot[spReplTail]; t != nil {
			tails = t.Count
		}
		res.Metrics.put("cluster.tail_requests", float64(tails), 1)
		// Core-seconds spent streaming tails per second of timed wall;
		// above 1 means more than one core's worth.
		res.Metrics.put("durable.serve_tail_busy_share", float64(totalNS(tot, spServeTail))/float64(wall), tails)
		res.Metrics.put("bench.unattributed_share", unattributedShare(tot), tot[spRouteOp].Count)
		if err := clusterIsolated(tp, stream, res); err != nil {
			return nil, err
		}
	}
	res.finish(w, setup, &untraced.phase, traced)
	return res, nil
}

// clusterRun runs the rounds of one phase. Every round boots a fresh
// cluster in fresh data directories, because the cost of a batch grows
// with the length of the shard log behind it: rounds only do identical
// work when each starts from empty logs. Boot, snapshot fetch, checks
// and shutdown are outside the round's timed part.
func clusterRun(cfg runConfig, stream []core.Measurement, want []byte, rec *recorder, res *result) (*clusterPhase, error) {
	p := &clusterPhase{}
	label := rec.phaseLabel()
	okStore, okRoute := true, true
	bud := cfg.budget(false)
	for start := time.Now(); bud.more(len(p.rounds), start); {
		if p.last != nil {
			for _, dir := range p.last.dirs {
				os.RemoveAll(dir)
			}
		}
		c, err := startCluster(cfg, rec)
		if err != nil {
			return nil, err
		}
		members, err := cluster.NewMembership(c.members, 0)
		if err != nil {
			return nil, err
		}
		hc := resilient.SplitTimeoutClient(0, 0, nil) // the route client's default
		base := hc.Transport
		rt := &routeTransport{base: base, rec: rec}
		hc.Transport = rt
		rc, err := cluster.NewRouteClient(cluster.RouteConfig{Members: members, HTTPClient: hc, Seed: cfg.seed | 1})
		if err != nil {
			return nil, err
		}

		roundID, roundStart := rec.newID(), rec.now()
		m := startMeter()
		for _, meas := range stream {
			rc.Ingest(meas)
		}
		flushErr := rc.Flush()
		sample := m.stop(int64(len(stream)))
		rec.add(spRound, roundID, 0, uint64(len(p.rounds)+1), roundStart, rec.now())
		p.rounds = append(p.rounds, sample)
		p.ops = append(p.ops, rt.lat...)
		p.attempted += int64(len(stream))
		if flushErr != nil {
			return nil, fmt.Errorf("route flush: %w", flushErr)
		}

		for _, node := range c.nodes {
			st := node.Status()
			for i, last := range st.LastSeq {
				if wm := st.Watermark[i]; wm <= last {
					p.lag += last - wm + 1
				}
			}
		}
		// What fleetctl does after a campaign: pull every node's
		// snapshot, decode, merge.
		t0 := time.Now()
		var dbs []*store.DB
		for _, mem := range c.members {
			db, err := fetchSnapshot(hc, mem.URL)
			if err != nil {
				return nil, err
			}
			dbs = append(dbs, db)
		}
		p.fetch = append(p.fetch, millis(time.Since(t0)))
		t0 = time.Now()
		p.merged = store.Merge(0, dbs...)
		p.merge = append(p.merge, millis(time.Since(t0)))
		if _, err := liveTables(p.merged); err != nil {
			return nil, err
		}
		base.(*http.Transport).CloseIdleConnections()

		rs := rc.Stats()
		p.route.Batches += rs.Batches
		p.route.Delivered += rs.Delivered
		p.route.Retries += rs.Retries
		p.route.NotOwnerRetries += rs.NotOwnerRetries
		p.route.Relayed += rs.Relayed
		p.route.DuplicateAcks += rs.DuplicateAcks
		p.route.Lost += rs.Lost
		for _, reg := range c.regs {
			for _, ms := range reg.Snapshot() {
				if ms.Name == "repl_ack_timeouts_total" {
					p.degraded += ms.Value
				}
			}
		}
		if rs.Delivered != uint64(len(stream)) || rs.Lost != 0 {
			okRoute = false
			p.failed += abs64(int64(len(stream))-int64(rs.Delivered)) + int64(rs.Lost)
		}
		if !bytes.Equal(p.merged.AppendSnapshot(nil), want) {
			okStore = false
			p.failed += int64(len(stream))
		}
		if err := c.stop(); err != nil {
			return nil, fmt.Errorf("close cluster: %w", err)
		}
		for _, dir := range c.dirs {
			p.walBytes += walBytesUnder(filepath.Join(dir, "own"))
		}
		p.last = c
	}
	rounds := uint64(len(p.rounds))
	res.check(label+": Delivered == n, Lost == 0", okRoute, "delivered %d of %d, lost %d", p.route.Delivered, rounds*uint64(len(stream)), p.route.Lost)
	res.check(label+": no degraded acks", p.degraded == 0, "%v batches acked after an ack timeout", p.degraded)
	res.check(label+": merged node snapshots equal the sequential control's bytes", okStore, "canonical merged snapshot differs from the control's")
	return p, nil
}

func fetchSnapshot(hc *http.Client, nodeURL string) (*store.DB, error) {
	resp, err := hc.Get(nodeURL + "/cluster/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/cluster/snapshot: HTTP %d", nodeURL, resp.StatusCode)
	}
	return store.DecodeSnapshot(body)
}

// walBytesUnder sums the WAL segment files below dir. cluster.Node
// exposes no durable.Stats, so the cluster's WAL volume is read off the
// disk: appended frames plus 13 bytes of header per segment.
func walBytesUnder(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".log" {
			total += info.Size()
		}
		return nil
	})
	return total
}

// clusterIsolated times single layers on the phase's own outputs: the
// measurement batch codec on the stream, the snapshot codec on the
// merged store, and ServeTail walked to the end of the longest shard
// log the last round left on disk.
func clusterIsolated(p *clusterPhase, stream []core.Measurement, res *result) error {
	t0 := time.Now()
	decoded := 0
	for i := 0; i < len(stream); i += cluster.DefaultRouteBatch {
		body := cluster.AppendMeasurementsID(nil, uint64(i+1), stream[i:min(i+cluster.DefaultRouteBatch, len(stream))])
		ms, _, err := cluster.DecodeMeasurementsID(body)
		if err != nil {
			return fmt.Errorf("isolated codec: %w", err)
		}
		decoded += len(ms)
	}
	res.Metrics.put("cluster.codec_ns_per_measurement", float64(time.Since(t0))/float64(len(stream)), len(stream))
	res.check("isolated codec round-trips the stream", decoded == len(stream), "decoded %d of %d", decoded, len(stream))
	if err := snapshotIsolated(res, p.merged); err != nil {
		return err
	}

	var longest string
	var size int64
	for _, dir := range p.last.dirs {
		shards, _ := filepath.Glob(filepath.Join(dir, "own", "shard-*"))
		for _, sd := range shards {
			if b := walBytesUnder(sd); b > size {
				longest, size = sd, b
			}
		}
	}
	if longest == "" {
		return fmt.Errorf("isolated ServeTail: no shard log left on disk")
	}
	log, err := durable.Open(durable.Options{Dir: longest, SyncEvery: -1})
	if err != nil {
		return err
	}
	defer log.Close()
	var frames int
	t0 = time.Now()
	for from := uint64(1); ; {
		sent, err := log.ServeTail(io.Discard, from, 8192)
		if err != nil {
			return fmt.Errorf("isolated ServeTail: %w", err)
		}
		if sent == 0 {
			break
		}
		frames += sent
		from += uint64(sent)
	}
	if frames == 0 {
		return fmt.Errorf("isolated ServeTail: %s held no frames", longest)
	}
	res.Metrics.put("durable.serve_tail_ns_per_frame", float64(time.Since(t0))/float64(frames), frames)
	return nil
}
