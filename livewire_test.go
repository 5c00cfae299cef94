package tlsfof

// The live-wire loop: a probe fleet driving real sockets through a
// forging interceptor on mitmd's accept loop (Interceptor.Serve, a
// resilient.Pool) and streaming captures into reportd's
// batch-ingest pipeline — the paper's deployed topology (Figure 4) end to
// end over loopback TCP. TestLiveWireSmoke is the CI smoke for this path;
// the BenchmarkLiveWire* functions are the quick local measurement of its
// throughput (the gated one is `go run -C bench . -workload livewire`).

import (
	"bytes"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/analysis"
	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/geo"
	"tlsfof/internal/ingest"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
)

// lwWorld is the authoritative side of a live-wire run: one CA-signed
// chain per probe host, shared between the socket run and the in-memory
// control run so both observe the same upstreams.
type lwWorld struct {
	chains map[string][][]byte
	hosts  []string
}

func newLWWorld(t testing.TB, hosts []string) *lwWorld {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "LiveWire Test CA", Organization: []string{"LiveWire Authority"}},
		KeyBits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &lwWorld{chains: make(map[string][][]byte), hosts: hosts}
	for _, h := range hosts {
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: h, KeyBits: 2048})
		if err != nil {
			t.Fatal(err)
		}
		w.chains[h] = leaf.ChainDER
	}
	return w
}

// serveUpstreamTCP starts the authoritative TLS responder on loopback,
// selecting chains by SNI.
func (w *lwWorld) serveUpstreamTCP(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tlswire.Server(ln, tlswire.ResponderConfig{
		Chain: func(sni string) ([][]byte, error) {
			chain, ok := w.chains[sni]
			if !ok {
				return nil, fmt.Errorf("no authoritative chain for %q", sni)
			}
			return chain, nil
		},
	}, nil)
	t.Cleanup(func() { ln.Close() })
	return ln
}

// newCollector builds a collector with every authoritative chain
// registered, feeding sink.
func (w *lwWorld) newCollector(sink core.Sink, campaign string) *core.Collector {
	col := core.NewCollector(classify.NewClassifier(), geo.NewDB(), sink)
	col.Campaign = campaign
	for h, chain := range w.chains {
		col.SetAuthoritative(h, chain)
	}
	return col
}

// lwProfiles is the product set the smoke drives: an upstream-validating
// antivirus, a masking parental filter, shared-key malware, and a
// whale-whitelisting AV — one representative per behavior family.
func lwProfiles(t testing.TB) []proxyengine.Profile {
	t.Helper()
	var out []proxyengine.Profile
	for _, name := range []string{"Bitdefender", "Kurupira.NET", "IopFailZeroAccessCreate", "Kaspersky Lab ZAO"} {
		p := classify.ProductByName(name)
		if p == nil {
			t.Fatalf("product %q missing from database", name)
		}
		out = append(out, proxyengine.FromProduct(p))
	}
	return out
}

// lwEngines mints one engine per profile over certgen.DefaultPool.
func lwEngines(t testing.TB, w *lwWorld, profiles []proxyengine.Profile) []*proxyengine.Engine {
	t.Helper()
	engines := make([]*proxyengine.Engine, len(profiles))
	for i, p := range profiles {
		e, err := proxyengine.New(p, proxyengine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

// lwJob is one probe assignment: which proxy listener to dial and which
// SNI to present.
type lwJob struct {
	addr string
	host string
}

// TestLiveWireSmoke closes the first true end-to-end live-wire loop over
// loopback TCP: an 8-worker probe fleet → per-product forging
// interceptors → /ingest/batch wire uploads → sharded pipeline →
// store.Merge — then verifies the resulting Tables are byte-identical to
// an equivalent in-memory (net.Pipe) run of the same profile set. Gated by
// -short so quick local runs skip the socket churn; CI runs it on every
// push.
func TestLiveWireSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live-wire smoke skipped in -short mode")
	}
	const (
		workers       = 8
		probesPerPair = 8
	)
	hosts := []string{"tlsresearch.byu.edu", "promodj.com", "www.facebook.com"}
	world := newLWWorld(t, hosts)
	profiles := lwProfiles(t)

	// — Live side: real sockets all the way. —
	upstreamLn := world.serveUpstreamTCP(t)
	engines := lwEngines(t, world, profiles)
	var jobs []lwJob
	for _, e := range engines {
		ic := proxyengine.NewInterceptor(e, func(string) (net.Conn, error) {
			return net.Dial("tcp", upstreamLn.Addr().String())
		})
		proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxyLn.Close() })
		go ic.Serve(proxyLn, nil)
		for _, h := range hosts {
			for i := 0; i < probesPerPair; i++ {
				jobs = append(jobs, lwJob{addr: proxyLn.Addr().String(), host: h})
			}
		}
	}

	pipeline := ingest.NewPipeline(ingest.Config{Shards: 4, Block: true})
	defer pipeline.Close()
	col := world.newCollector(pipeline, "live-wire")
	// The live side runs with the observation memo, the in-memory control
	// below without — the byte-identical tables at the end prove the
	// cache lossless over the wire, not just in-process.
	col.Cache = core.NewObservationCache(0, 0)
	// reportd observes each distinct (host, chain) of a request once, so
	// the intake counts those per request for the cache accounting below.
	var entries atomic.Uint64
	batch := ingest.BatchHandler(col)
	mux := http.NewServeMux()
	mux.Handle("/ingest/batch", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		seen := map[string]bool{}
		dec := ingest.NewArenaDecoder(bytes.NewReader(body), nil)
		for rep, err := dec.Next(); err == nil; rep, err = dec.Next() {
			seen[fmt.Sprint(rep.Host, rep.ChainDER)] = true
		}
		entries.Add(uint64(len(seen)))
		r.Body = io.NopCloser(bytes.NewReader(body))
		batch.ServeHTTP(w, r)
	}))
	reportd := httptest.NewServer(mux)
	defer reportd.Close()

	client := ingest.NewClient(reportd.URL + "/ingest/batch")
	client.BatchSize = 32

	jobCh := make(chan lwJob)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				res, err := tlswire.ProbeAddr(j.addr, tlswire.ProbeOptions{
					ServerName: j.host, Timeout: 10 * time.Second,
				})
				if err != nil {
					t.Errorf("probe %s via %s: %v", j.host, j.addr, err)
					continue
				}
				if err := client.Report(ingest.Report{Host: j.host, ChainDER: res.ChainDER}); err != nil {
					t.Errorf("upload: %v", err)
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	st := client.Stats()
	if int(st.Accepted) != len(jobs) || st.Rejected != 0 {
		t.Fatalf("ingest accounting: accepted %d, rejected %d, want %d/0",
			st.Accepted, st.Rejected, len(jobs))
	}
	pipeline.Drain()
	liveDB := pipeline.Merge(0)

	// Single-flight accounting: every (engine, host) pair forged at most
	// once despite 8 concurrent workers hammering the same hosts.
	for i, e := range engines {
		cs := e.CacheStats()
		if cs.Forges > uint64(len(hosts)) {
			t.Errorf("engine %d (%s): %d forges for %d hosts — cache not single-flight",
				i, profiles[i].ProductName, cs.Forges, len(hosts))
		}
	}

	// Observation-memo accounting: the collector derived once per
	// distinct (host, chain) pair — at most engines × hosts forgeries
	// plus the pass-through chains — and served everything else as hits.
	if cs := col.Cache.Stats(); true {
		maxDistinct := uint64(len(engines)*len(hosts) + len(hosts))
		if cs.Derives == 0 || cs.Derives > maxDistinct {
			t.Errorf("observation cache derived %d times; want 1..%d (distinct chains only)", cs.Derives, maxDistinct)
		}
		if cs.Hits+cs.Misses != entries.Load() {
			t.Errorf("observation cache saw %d lookups, want %d (one per distinct host and chain per request)", cs.Hits+cs.Misses, entries.Load())
		}
	}

	// — Control side: the identical workload through in-memory pipes. —
	network := faultnet.NewNetwork()
	for h, chain := range world.chains {
		chain := chain
		network.Listen(h, func(conn net.Conn) {
			defer conn.Close()
			tlswire.Respond(conn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(chain)})
		})
	}
	simDB := store.New(0)
	simCol := world.newCollector(simDB, "live-wire")
	for _, e := range lwEngines(t, world, profiles) {
		ic := proxyengine.NewInterceptor(e, network.Dial)
		view := faultnet.Intercepted(func(conn net.Conn) {
			defer conn.Close()
			ic.HandleConn(conn)
		})
		for _, h := range hosts {
			for i := 0; i < probesPerPair; i++ {
				conn, err := view(h)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tlswire.Probe(conn, tlswire.ProbeOptions{ServerName: h, Timeout: 10 * time.Second})
				conn.Close()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := simCol.Ingest(0, h, res.ChainDER, simCol.Campaign); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The two stores must agree on every analysis artifact the profile
	// set populates: totals, issuer histogram, classification, and the
	// negligence cohort.
	if lt, st := liveDB.Totals(), simDB.Totals(); lt != st {
		t.Fatalf("totals diverge: live %+v, in-memory %+v", lt, st)
	}
	renders := map[string]func(*store.DB) string{
		"Table4": func(db *store.DB) string {
			return renderTable(t, func(w *strings.Builder) error { return analysis.Table4(w, db, 25) })
		},
		"Table5": func(db *store.DB) string {
			return renderTable(t, func(w *strings.Builder) error { return analysis.Table5(w, db) })
		},
		"Negligence": func(db *store.DB) string {
			return renderTable(t, func(w *strings.Builder) error { return analysis.Negligence(w, db) })
		},
	}
	for name, render := range renders {
		live, sim := render(liveDB), render(simDB)
		if live != sim {
			t.Errorf("%s diverges between live-wire and in-memory runs:\n— live —\n%s\n— in-memory —\n%s", name, live, sim)
		}
	}
}

func renderTable(t testing.TB, f func(*strings.Builder) error) string {
	t.Helper()
	var b strings.Builder
	if err := f(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// BenchmarkLiveWireProbe measures raw probe throughput through one
// forging interceptor over loopback TCP with a warm forge cache — the
// per-connection cost of the interception plane itself. The telemetry
// plane is mounted and every probe carries a trace ID, exactly as
// cmd/mitmd and cmd/tlsproxy-probe run by default: the number includes
// per-stage histogram observes and span recording.
func BenchmarkLiveWireProbe(b *testing.B) {
	hosts := []string{"bench-a.example", "bench-b.example", "bench-c.example"}
	world := newLWWorld(b, hosts)
	upstreamLn := world.serveUpstreamTCP(b)
	e, err := proxyengine.New(proxyengine.Profile{ProductName: "BenchProxy", IssuerOrg: "BenchProxy Inc"},
		proxyengine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ic := proxyengine.NewInterceptor(e, func(string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	ic.Tracer = telemetry.NewTracer(telemetry.NewRegistry(), 0)
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, nil)
	// Warm every forgery so the benchmark measures the serving path.
	for _, h := range hosts {
		if _, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{ServerName: h, Timeout: 10 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
	var sidBuf [telemetry.TraceSessionIDLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
			ServerName: hosts[i%len(hosts)], Timeout: 10 * time.Second,
			SessionID: telemetry.AppendTraceSessionID(sidBuf[:0], telemetry.TraceID(1<<40|uint64(i+1)&0xffffff)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "probes/sec")
}

// BenchmarkLiveWireEndToEnd measures the whole loop per iteration: an
// 8-worker fleet runs 256 probes through the interceptor and streams them
// into the batch-ingest pipeline, ending with a drain — fleet → proxy →
// reportd ingest → sharded store, all over real sockets. The telemetry
// plane is mounted end to end (interceptor, decode, observe, pipeline)
// and every probe carries a trace ID — the default production shape.
func BenchmarkLiveWireEndToEnd(b *testing.B) {
	const (
		workers     = 8
		probesPerOp = 256
	)
	hosts := []string{"bench-a.example", "bench-b.example", "bench-c.example"}
	world := newLWWorld(b, hosts)
	upstreamLn := world.serveUpstreamTCP(b)
	e, err := proxyengine.New(proxyengine.Profile{ProductName: "BenchProxy", IssuerOrg: "BenchProxy Inc"},
		proxyengine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ic := proxyengine.NewInterceptor(e, func(string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)
	ic.Tracer = tracer
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, nil)

	pipeline := ingest.NewPipeline(ingest.Config{Shards: 4, Block: true, Tracer: tracer})
	defer pipeline.Close()
	col := world.newCollector(pipeline, "bench")
	// The production collector configuration: observation memo on.
	col.Cache = core.NewObservationCache(0, 0)
	col.Tracer = tracer
	mux := http.NewServeMux()
	mux.Handle("/ingest/batch", ingest.BatchHandler(col))
	reportd := httptest.NewServer(mux)
	defer reportd.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client := ingest.NewClient(reportd.URL + "/ingest/batch")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Per-worker Prober, as cmd/tlsproxy-probe -fleet runs —
				// including the per-probe trace ID in the session id and
				// on the wire frame (the fleet's default).
				prober := tlswire.NewProber()
				dialer := net.Dialer{Timeout: 10 * time.Second}
				var sidBuf [telemetry.TraceSessionIDLen]byte
				for j := w; j < probesPerOp; j += workers {
					host := hosts[j%len(hosts)]
					trace := telemetry.TraceID(1<<40 | uint64(w&0xffff)<<24 | uint64(j+1)&0xffffff)
					conn, err := dialer.Dial("tcp", proxyLn.Addr().String())
					if err != nil {
						b.Error(err)
						return
					}
					res, err := prober.Probe(conn, tlswire.ProbeOptions{
						ServerName: host, Timeout: 10 * time.Second,
						SessionID: telemetry.AppendTraceSessionID(sidBuf[:0], trace),
					})
					conn.Close()
					if err != nil {
						b.Error(err)
						return
					}
					if err := client.Report(ingest.Report{Host: host, ChainDER: res.ChainDER, Trace: uint64(trace)}); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := client.Flush(); err != nil {
			b.Fatal(err)
		}
		pipeline.Drain()
	}
	b.ReportMetric(float64(b.N*probesPerOp)/b.Elapsed().Seconds(), "probes/sec")
}
