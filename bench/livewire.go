package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/ingest"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// The live-wire loop over loopback TCP: nproc probe workers, five network
// paths (four forging interceptors and one direct path to the origin,
// the in-workload control for what interception adds), one shared upload
// client, reportd's server stack.

const (
	probeTimeout = 10 * time.Second // tlsproxy-probe -timeout
	connTimeout  = 30 * time.Second // mitmd -conn-timeout
	loopbackIP   = 0x7f000001       // what reportd records for a loopback client
)

// liveJob is one probe assignment drawn from the seed.
type liveJob struct{ path, host uint8 }

// liveNet is the network side of a phase: the origin and the four
// interceptors behind their own listeners and harness-owned accept
// loops, which are mitmd's and tlswire.Server's loops plus, when rec is
// set, one span per handled connection.
type liveNet struct {
	rec       *recorder
	engines   []*proxyengine.Engine
	addrs     []string     // one per path; the last is the origin itself
	tables    []*portTable // one per listener, same order
	listeners []net.Listener
	conns     sync.WaitGroup
	errored   atomic.Int64
	legMu     sync.Mutex
	legs      []openLeg
}

// openLeg remembers which interceptor an upstream-leg span belongs to,
// for the containment join in linkSpans.
type openLeg struct {
	id   uint64
	path int
}

func remotePort(c net.Conn) int { return c.RemoteAddr().(*net.TCPAddr).Port }
func localPort(c net.Conn) int  { return c.LocalAddr().(*net.TCPAddr).Port }

func startLiveNet(w *world, rec *recorder) (*liveNet, error) {
	n := &liveNet{rec: rec}
	var err error
	if n.engines, err = w.engines(); err != nil {
		return nil, err
	}
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	origin := len(n.engines)
	originCfg := tlswire.ResponderConfig{Chain: func(sni string) ([][]byte, error) {
		if chain, ok := w.auth.Chains[sni]; ok {
			return chain, nil
		}
		return nil, fmt.Errorf("no authoritative chain for %q", sni)
	}}
	for range n.engines {
		n.tables = append(n.tables, new(portTable))
	}
	n.tables = append(n.tables, new(portTable))

	for k, e := range n.engines {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ic := proxyengine.NewInterceptor(e, n.upstreamDial(k, originLn.Addr().String()))
		// Registry and tracer mounted, as cmd/mitmd does by default.
		ic.Tracer = telemetry.NewTracer(telemetry.NewRegistry(), 0)
		n.addrs = append(n.addrs, ln.Addr().String())
		n.listeners = append(n.listeners, ln)
		table := n.tables[k]
		go n.acceptLoop(ln, func(conn net.Conn) {
			conn.SetDeadline(time.Now().Add(connTimeout))
			id, start := rec.newID(), rec.now()
			if err := ic.HandleConn(conn); err != nil {
				n.errored.Add(1)
			}
			if rec != nil {
				rec.add(spHandleConn, id, table[remotePort(conn)].Load(), uint64(k), start, time.Now())
			}
		})
	}
	n.addrs = append(n.addrs, originLn.Addr().String())
	n.listeners = append(n.listeners, originLn)
	go n.acceptLoop(originLn, func(conn net.Conn) {
		id, start := rec.newID(), rec.now()
		if err := tlswire.Respond(conn, originCfg); err != nil {
			n.errored.Add(1)
		}
		if rec != nil {
			rec.add(spRespond, id, n.tables[origin][remotePort(conn)].Load(), 0, start, time.Now())
		}
	})
	return n, nil
}

func (n *liveNet) acceptLoop(ln net.Listener, handle func(net.Conn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.conns.Add(1)
		go func() {
			defer n.conns.Done()
			defer conn.Close()
			handle(conn)
		}()
	}
}

// upstreamDial is the dial func handed to interceptor k. Traced, it is
// wrapped: the leg's span runs from dial to close of the upstream
// connection, and the origin's accept loop finds it by port.
func (n *liveNet) upstreamDial(k int, origin string) proxyengine.Dialer {
	return func(string) (net.Conn, error) {
		if n.rec == nil {
			return net.Dial("tcp", origin)
		}
		id, start := n.rec.newID(), time.Now()
		conn, err := net.Dial("tcp", origin)
		if err != nil {
			return nil, err
		}
		n.tables[len(n.engines)][localPort(conn)].Store(id)
		n.legMu.Lock()
		n.legs = append(n.legs, openLeg{id, k})
		n.legMu.Unlock()
		return &legConn{Conn: conn, done: func() { n.rec.add(spUpstreamLeg, id, 0, uint64(k), start, time.Now()) }}, nil
	}
}

// legConn ends its span when the interceptor closes the upstream leg.
type legConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *legConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

// CloseWrite keeps the interceptor's half-close of a spliced upstream.
func (c *legConn) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }

func (n *liveNet) stop() {
	for _, ln := range n.listeners {
		ln.Close()
	}
	n.conns.Wait()
}

// probeOnce is one fleet-worker probe: dial, partial handshake, close.
// With a port table, the probe's span ID is filed under the connection's
// local port after the dial and before the first byte is written, which
// is before the accept loop on the other side can look it up.
func probeOnce(prober *tlswire.Prober, dialer *net.Dialer, addr, host string, sid []byte, table *portTable, span uint64) (res *tlswire.ProbeResult, dialed, captured time.Time, err error) {
	conn, err := dialer.Dial("tcp", addr)
	if err != nil {
		return nil, dialed, captured, err
	}
	defer conn.Close()
	if table != nil {
		table[localPort(conn)].Store(span)
	}
	dialed = time.Now()
	res, err = prober.Probe(conn, tlswire.ProbeOptions{ServerName: host, Timeout: probeTimeout, SessionID: sid})
	return res, dialed, time.Now(), err
}

// livePhase is what one phase leaves behind.
type livePhase struct {
	phase
	drains   []float64
	direct   latencies
	proxied  latencies
	forgeHit float64
	lookups  uint64
	forges   uint64
	spans    []span // traced phase only, parent links finished
}

func runLivewire(cfg runConfig) (*result, error) {
	sz := cfg.sizes()
	w, err := cfg.worldOr(1024, 2048)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, RoundSize: int64(sz.probes), Metrics: metricSet{}}
	goldenErr := checkGolden(w)
	res.check("golden tables at seed 2014 scale 0.01", goldenErr == nil, "%v", goldenErr)

	rng := stats.NewRNG(cfg.seed)
	jobs := make([]liveJob, sz.probes)
	for i := range jobs {
		jobs[i] = liveJob{path: uint8(rng.Intn(len(liveProducts) + 1)), host: uint8(rng.Intn(len(w.hosts)))}
	}
	// Mint the four product CAs here, so the phases' own engines find
	// their named keys in the pool and key generation stays in set-up.
	if _, err := w.engines(); err != nil {
		return nil, err
	}
	setup := time.Since(processStart)
	cfg.logf("set-up %.2fs, %d probes per round over %d paths x %d hosts", setup.Seconds(), len(jobs), len(liveProducts)+1, len(w.hosts))

	untraced, err := liveRun(cfg, w, jobs, nil, res)
	if err != nil {
		return nil, err
	}
	all := untraced.ops.sorted()
	direct, proxied := untraced.direct.sorted(), untraced.proxied.sorted()
	res.Metrics.put("tlswire.probe_direct_p50_us", direct.quantileUS(0.50), len(direct))
	res.Metrics.put("tlswire.probe_p99_us", all.quantileUS(0.99), len(all))
	res.Metrics.put("tlswire.probe_p999_us", all.quantileUS(0.999), len(all))
	res.Metrics.put("proxyengine.added_p50_us", proxied.quantileUS(0.50)-direct.quantileUS(0.50), len(proxied))
	res.Metrics.put("proxyengine.forge_hit_ratio", untraced.forgeHit, int(untraced.lookups))
	res.Metrics.put("proxyengine.forges", float64(untraced.forges), 1)
	res.Metrics.put("ingest.drain_ms", median(untraced.drains), len(untraced.drains))

	var traced *phase
	if cfg.trace {
		rec := newRecorder()
		tp, err := liveRun(cfg, w, jobs, rec, res)
		if err != nil {
			return nil, err
		}
		traced = &tp.phase
		tot, err := finishTrace(cfg, res, tp.spans)
		if err != nil {
			return nil, err
		}
		n, _ := traced.total()
		us := func(name spanName) float64 { return meanNS(tot, name) / 1e3 }
		count := func(name spanName) int {
			if t := tot[name]; t != nil {
				return t.Count
			}
			return 0
		}
		res.Metrics.put("tlswire.respond_us", us(spRespond), count(spRespond))
		// Client and loopback: what the probe call spends outside every
		// server-side span it caused.
		if t := tot[spProbe]; t != nil {
			res.Metrics.put("tlswire.client_self_us", float64(t.SelfNS)/1e3/float64(t.Count), t.Count)
		}
		res.Metrics.put("proxyengine.handleconn_us", us(spHandleConn), count(spHandleConn))
		res.Metrics.put("proxyengine.upstream_leg_us", us(spUpstreamLeg), count(spUpstreamLeg))
		if t := tot[spHandleConn]; t != nil {
			res.Metrics.put("proxyengine.self_us", float64(t.SelfNS)/1e3/float64(t.Count), t.Count)
		}
		res.Metrics.put("ingest.handler_us_per_report", float64(totalNS(tot, spBatchHandler))/1e3/float64(n), int(n))
		res.Metrics.put("bench.unattributed_share", unattributedShare(tot), count(spProbeOp))
	}
	res.finish(w, setup, &untraced.phase, traced)
	return res, nil
}

// liveRun assembles one deployment — network, server stack, upload
// client — warms every forge cache, runs the rounds and checks the
// stored tables against an in-process control.
func liveRun(cfg runConfig, w *world, jobs []liveJob, rec *recorder, res *result) (*livePhase, error) {
	walDir, err := cfg.scratch.dir("livewire-wal")
	if err != nil {
		return nil, err
	}
	srv, err := startReportServer(w, walDir, "livewire", rec, 0)
	if err != nil {
		return nil, err
	}
	network, err := startLiveNet(w, rec)
	if err != nil {
		return nil, err
	}
	defer network.stop()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := ingest.NewClient(srv.url)
	client.BatchSize = reportBatch
	client.Retries = 2 // tlsproxy-probe -ingest-retries
	client.HTTPClient = &http.Client{Transport: tr}
	if rec != nil {
		client.HTTPClient.Transport = &spanTransport{base: tr, rec: rec}
	}
	// The fleet's own telemetry: every probe records its stage.
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)

	// Warm-up, unreported: one probe per path and host, so every forgery
	// is minted and every interceptor holds its upstream chains.
	warm := tlswire.NewProber()
	dialer := &net.Dialer{Timeout: probeTimeout}
	for _, addr := range network.addrs {
		for _, h := range w.hosts {
			if _, _, _, err := probeOnce(warm, dialer, addr, h.Name, nil, nil, 0); err != nil {
				return nil, fmt.Errorf("warm-up probe %s via %s: %w", h.Name, addr, err)
			}
		}
	}
	rec.reset()
	var forge0 []proxyengine.ForgeStats
	for _, e := range network.engines {
		forge0 = append(forge0, e.CacheStats())
	}

	type worker struct {
		direct, proxied latencies
		failed          int64
	}
	workers := make([]*worker, nproc)
	for i := range workers {
		workers[i] = &worker{}
	}
	origin := uint8(len(network.engines))
	p := &livePhase{}
	bud := cfg.budget(false)
	for start := time.Now(); bud.more(len(p.rounds), start); {
		round := uint64(len(p.rounds))
		var next atomic.Int64
		var wg sync.WaitGroup
		roundID := rec.newID()
		roundStart := rec.now()
		m := startMeter()
		for wi, wk := range workers {
			wg.Add(1)
			go func(wi int, wk *worker) {
				defer wg.Done()
				prober := tlswire.NewProber()
				dialer := net.Dialer{Timeout: probeTimeout}
				var sidBuf [telemetry.TraceSessionIDLen]byte
				for {
					j := int(next.Add(1)) - 1
					if j >= len(jobs) {
						return
					}
					job := jobs[j]
					host := w.hosts[job.host].Name
					// The fleet's deterministic per-probe trace ID.
					trace := telemetry.TraceID(cfg.seed<<40 | uint64(wi&0xffff)<<24 | (round*uint64(len(jobs))+uint64(j)+1)&0xffffff)
					opID, probeID := rec.newID(), rec.newID()
					var table *portTable
					if rec != nil {
						table = network.tables[job.path]
					}
					t0 := time.Now()
					probe, dialed, captured, err := probeOnce(prober, &dialer, network.addrs[job.path], host,
						telemetry.AppendTraceSessionID(sidBuf[:0], trace), table, probeID)
					if err != nil {
						wk.failed++
						continue
					}
					tracer.Record(trace, telemetry.StageProbe, dialed, probe.HandshakeTime)
					lat := captured.Sub(t0)
					if job.path == origin {
						wk.direct = append(wk.direct, lat)
					} else {
						wk.proxied = append(wk.proxied, lat)
					}
					if err := client.Report(ingest.Report{Host: host, ChainDER: probe.ChainDER, Trace: uint64(trace)}); err != nil {
						wk.failed++
					}
					if rec != nil {
						t3 := time.Now()
						op := round*uint64(len(jobs)) + uint64(j) + 1
						rec.add(spProbeOp, opID, roundID, op, t0, t3)
						rec.add(spDial, rec.newID(), opID, op, t0, dialed)
						rec.add(spProbe, probeID, opID, op, dialed, captured)
						rec.add(spClientReport, rec.newID(), opID, op, captured, t3)
					}
				}
			}(wi, wk)
		}
		wg.Wait()
		if err := client.Flush(); err != nil {
			return nil, fmt.Errorf("final flush: %w", err)
		}
		acked := time.Now()
		srv.pipeline.Drain()
		sample := m.stop(int64(len(jobs)))
		p.drains = append(p.drains, millis(time.Since(acked)))
		p.rounds = append(p.rounds, sample)
		p.attempted += int64(len(jobs))
		rec.add(spRound, roundID, 0, round+1, roundStart, rec.now())
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	network.stop()
	for _, wk := range workers {
		p.direct = append(p.direct, wk.direct...)
		p.proxied = append(p.proxied, wk.proxied...)
		p.failed += wk.failed
	}
	p.ops = append(append(p.ops, p.direct...), p.proxied...)
	var hits, misses uint64
	for i, e := range network.engines {
		st := e.CacheStats()
		hits += st.Hits - forge0[i].Hits
		misses += st.Misses - forge0[i].Misses
		p.forges += st.Forges - forge0[i].Forges
	}
	p.lookups = hits + misses
	if p.lookups > 0 {
		p.forgeHit = float64(hits) / float64(p.lookups)
	}
	if rec != nil {
		p.spans = network.linkSpans(rec.snapshot())
	}

	// The control: the same (path, host) multiset into a plain store.DB,
	// each pair's observation derived once, uncached, from the chain that
	// path presents for that host.
	rounds := len(p.rounds)
	control, wantProxied, err := liveControl(w, network.engines, jobs, rounds)
	if err != nil {
		return nil, err
	}
	live := srv.pipeline.Merge(0)
	got, want := live.Totals(), control.Totals()
	cs := client.Stats()
	sent := int64(rounds * len(jobs))
	p.failed += abs64(sent-int64(got.Tested)) + int64(cs.Rejected) + network.errored.Load()
	label := rec.phaseLabel()
	res.check(label+": stored == probes, rejected == 0, no handler errors", p.failed == 0,
		"probes %d, stored %d, accepted %d, rejected %d, handler errors %d", sent, got.Tested, cs.Accepted, cs.Rejected, network.errored.Load())
	res.check(label+": proxied == probes through intercepting paths", int64(got.Proxied) == wantProxied && got == want,
		"live %+v, control %+v, expected proxied %d", got, want, wantProxied)
	liveT, err := liveTables(live)
	if err != nil {
		return nil, err
	}
	controlT, err := liveTables(control)
	if err != nil {
		return nil, err
	}
	res.check(label+": Tables 4, 5 and negligence equal the control's", string(liveT) == string(controlT), "live tables differ from the in-process control")
	if string(liveT) != string(controlT) {
		p.failed += sent
	}
	if rec == nil {
		srv.serverCounters(res)
	}
	if err := srv.pipeline.Close(); err != nil {
		return nil, fmt.Errorf("close pipeline: %w", err)
	}
	return p, nil
}

// liveControl feeds the job multiset, rounds times over, into a plain
// store. It also counts the probes that must read as proxied: those
// through an intercepting path that does not whitelist the host.
func liveControl(w *world, engines []*proxyengine.Engine, jobs []liveJob, rounds int) (*store.DB, int64, error) {
	counts := make(map[liveJob]int)
	for _, j := range jobs {
		counts[j] += rounds
	}
	db := store.New(0)
	var captured core.Measurement
	col := w.newCollector(core.SinkFunc(func(m core.Measurement) { captured = m }), "livewire")
	var proxied int64
	for job, n := range counts {
		host := w.hosts[job.host].Name
		chain := w.auth.Chains[host]
		if int(job.path) < len(engines) {
			upstream, err := x509util.ParseChain(chain)
			if err != nil {
				return nil, 0, err
			}
			d, err := engines[job.path].Decide(host, upstream, chain)
			if err != nil {
				return nil, 0, err
			}
			if d.Action == proxyengine.ActionIntercept {
				chain = d.ChainDER
				proxied += int64(n)
			}
		}
		if _, err := col.Ingest(loopbackIP, host, chain, col.Campaign); err != nil {
			return nil, 0, err
		}
		for i := 0; i < n; i++ {
			db.Ingest(captured)
		}
	}
	return db, proxied, nil
}

// linkSpans finishes the parent links the shims could not know when
// they recorded: an upstream leg belongs to the handleconn span of its
// interceptor that was open when the leg was dialled, and a server-side
// span inherits its operation from the span that caused it.
func (n *liveNet) linkSpans(spans []span) []span {
	index := make(map[uint64]int, len(spans))
	byPath := make(map[uint64][]int)
	for i, s := range spans {
		index[s.ID] = i
		if s.Name == spHandleConn {
			byPath[s.Op] = append(byPath[s.Op], i)
		}
	}
	for _, idxs := range byPath {
		sort.Slice(idxs, func(a, b int) bool { return spans[idxs[a]].Start < spans[idxs[b]].Start })
	}
	for _, leg := range n.legs {
		li, ok := index[leg.id]
		if !ok {
			continue // a warm-up leg, dropped with the warm-up spans
		}
		for _, hi := range byPath[uint64(leg.path)] {
			if h := spans[hi]; h.Start <= spans[li].Start && spans[li].Start <= h.End {
				spans[li].Parent = h.ID
			}
		}
	}
	for i := range spans {
		if s := &spans[i]; s.Name == spHandleConn || s.Name == spUpstreamLeg || s.Name == spRespond {
			s.Op = 0
			for at := s.Parent; at != 0; {
				pi, ok := index[at]
				if !ok {
					break
				}
				if spans[pi].Name == spProbeOp {
					s.Op = spans[pi].Op
					break
				}
				at = spans[pi].Parent
			}
		}
	}
	return spans
}
