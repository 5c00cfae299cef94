// Command mitmd runs a TLS intercepting proxy with one of the behavior
// profiles from the study's product database — a lab instrument for
// exercising the measurement tool against known interception behaviors at
// production rates. It is built to be load-bearing: a bounded accept pool,
// per-connection deadlines, a sharded single-flight forged-chain cache,
// an asynchronously refilled key pool, graceful drain on SIGINT/SIGTERM,
// and a /metrics stats endpoint.
//
// Usage:
//
//	mitmd -listen=:8443 -upstream=127.0.0.1:9443 -product="Bitdefender"
//	mitmd -listen=:8443 -upstream=127.0.0.1:9443 -issuer="Evil Corp" -keybits=512 -md5
//	mitmd -listen=:8443 -upstream=127.0.0.1:9443 -product="Kaspersky Lab ZAO" \
//	      -stats=127.0.0.1:8481 -max-conns=2048 -conn-timeout=15s -ca-out=ca.pem
//	mitmd -list
//
// The examples/live-wire runbook drives a probe fleet through this
// command and into reportd's batch-ingest endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/telemetry"
)

// server wraps an Interceptor with the operational machinery a
// load-bearing proxy needs: connection bounding, deadlines, drain, stats.
type server struct {
	ic          *proxyengine.Interceptor
	engine      *proxyengine.Engine
	faults      *faultnet.Plan // nil unless -fault
	connTimeout time.Duration
	slots       chan struct{} // accept pool: one token per live connection
	quit        chan struct{} // closed on shutdown signal

	start    time.Time
	accepted atomic.Uint64
	handled  atomic.Uint64
	errored  atomic.Uint64
	active   atomic.Int64

	wg sync.WaitGroup
}

// serve accepts until ln closes, handling each connection on a pooled
// goroutine with a hard deadline. A full pool applies backpressure at
// accept rather than growing without bound; a shutdown signal unblocks
// the slot wait so drain can begin even when the pool is saturated.
func (s *server) serve(ln net.Listener, onErr func(error)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		select {
		case s.slots <- struct{}{}:
		case <-s.quit:
			conn.Close()
			return
		}
		s.accepted.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go func() {
			defer func() {
				conn.Close()
				s.active.Add(-1)
				<-s.slots
				s.wg.Done()
			}()
			if s.connTimeout > 0 {
				conn.SetDeadline(time.Now().Add(s.connTimeout))
			}
			if err := s.ic.HandleConn(conn); err != nil {
				s.errored.Add(1)
				if onErr != nil {
					onErr(err)
				}
				return
			}
			s.handled.Add(1)
		}()
	}
}

// drain waits for in-flight connections, up to timeout.
func (s *server) drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// metrics is the /metrics JSON shape.
type metrics struct {
	Product       string                 `json:"product"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Conns         connMetrics            `json:"conns"`
	ForgeCache    proxyengine.ForgeStats `json:"forge_cache"`
	// Faults reports per-scenario fault-injection accounting when the
	// proxy runs with -fault; absent otherwise.
	Faults map[string]faultnet.ScenarioStats `json:"faults,omitempty"`
}

type connMetrics struct {
	Accepted uint64 `json:"accepted"`
	Handled  uint64 `json:"handled"`
	Errored  uint64 `json:"errored"`
	Active   int64  `json:"active"`
	MaxConns int    `json:"max_conns"`
}

func (s *server) metrics() metrics {
	var faults map[string]faultnet.ScenarioStats
	if s.faults != nil {
		faults = s.faults.Stats()
	}
	return metrics{
		Faults:        faults,
		Product:       s.engine.Profile.ProductName,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Conns: connMetrics{
			Accepted: s.accepted.Load(),
			Handled:  s.handled.Load(),
			Errored:  s.errored.Load(),
			Active:   s.active.Load(),
			MaxConns: cap(s.slots),
		},
		ForgeCache: s.engine.CacheStats(),
	}
}

func main() {
	var (
		listen       = flag.String("listen", ":8443", "listen address for intercepted clients")
		upstream     = flag.String("upstream", "", "authoritative server address (host:port); required unless -list")
		product      = flag.String("product", "", "behavior profile from the product database (see -list)")
		issuer       = flag.String("issuer", "", "custom Issuer Organization (ignored with -product)")
		keyBits      = flag.Int("keybits", 1024, "forged-leaf key size for custom profiles")
		md5          = flag.Bool("md5", false, "sign forgeries with MD5 (custom profiles)")
		list         = flag.Bool("list", false, "list known products and exit")
		cacheCap     = flag.Int("cache", proxyengine.DefaultForgeCacheCap, "forged-chain cache capacity (hosts)")
		maxConns     = flag.Int("max-conns", 1024, "maximum concurrent intercepted connections")
		connTimeout  = flag.Duration("conn-timeout", 30*time.Second, "per-connection deadline")
		statsAddr    = flag.String("stats", "", "serve GET /metrics on this address (disabled when empty)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (disabled when empty)")
		caOut        = flag.String("ca-out", "", "write the proxy CA certificate PEM to this path")
		faultSpec    = flag.String("fault", "", "inject deterministic faults on every accepted connection (e.g. \"fragment\", \"all,seed=42\"; see internal/faultnet.ParseSpec)")
		prewarm      = flag.Bool("prewarm", true, "prewarm the key pool and refill it asynchronously")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on shutdown")
		verbose      = flag.Bool("v", false, "log per-connection errors")
	)
	flag.Parse()

	// Telemetry plane: registry + tracer feed /metrics and /trace; the
	// event ring keeps the last structured events for post-mortem dumps
	// on panic or SIGTERM.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	ring := telemetry.NewEventRing(0)
	slog.SetDefault(slog.New(telemetry.Tee(
		slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}), ring)))
	defer telemetry.DumpOnPanic(ring, os.Stderr)

	if *pprofAddr != "" {
		// pprof registers on http.DefaultServeMux; the stats mux below is
		// separate, so profiling stays on its own listener.
		go func() {
			fmt.Fprintf(os.Stderr, "mitmd: pprof: %v\n", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("mitmd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *list {
		for _, p := range classify.KnownProducts {
			name := p.Name
			if name == "" {
				name = p.CommonName
			}
			fmt.Printf("%-42q %s\n", name, p.Category)
		}
		return
	}
	if *upstream == "" {
		fmt.Fprintln(os.Stderr, "mitmd: -upstream is required")
		os.Exit(1)
	}

	var profile proxyengine.Profile
	if *product != "" {
		p := classify.ProductByName(*product)
		if p == nil {
			fmt.Fprintf(os.Stderr, "mitmd: unknown product %q (try -list)\n", *product)
			os.Exit(1)
		}
		profile = proxyengine.FromProduct(p)
	} else {
		profile = proxyengine.Profile{
			ProductName: "custom",
			IssuerOrg:   *issuer,
			KeyBits:     *keyBits,
		}
		if *md5 {
			profile.SigAlg = certgen.MD5WithRSA
		}
	}

	// A dedicated pool per proxy process: the hot path must never stall
	// behind RSA keygen, so the pool refills in the background and is
	// optionally prewarmed before the listener opens.
	pool := certgen.NewKeyPool(4, nil)
	if *prewarm {
		pool.SetAsyncRefill(true)
	}
	engine, err := proxyengine.New(profile, proxyengine.Options{Pool: pool, CacheCap: *cacheCap})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mitmd: %v\n", err)
		os.Exit(1)
	}
	if *prewarm {
		if err := <-pool.Prewarm(profile.LeafKeyBits()); err != nil {
			fmt.Fprintf(os.Stderr, "mitmd: prewarm: %v\n", err)
			os.Exit(1)
		}
	}
	if *caOut != "" {
		if err := os.WriteFile(*caOut, engine.CA.PEM(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mitmd: write CA: %v\n", err)
			os.Exit(1)
		}
	}

	ic := proxyengine.NewInterceptor(engine, func(host string) (net.Conn, error) {
		return net.Dial("tcp", *upstream)
	})
	ic.Tracer = tracer
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mitmd: %v\n", err)
		os.Exit(1)
	}
	var faults *faultnet.Plan
	if *faultSpec != "" {
		faults, err = faultnet.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitmd: %v\n", err)
			os.Exit(1)
		}
		ln = faults.Listener(ln)
		fmt.Printf("mitmd: fault injection on (seed %d, %d scenarios)\n", faults.Seed, len(faults.Scenarios))
	}

	srv := &server{
		ic:          ic,
		engine:      engine,
		faults:      faults,
		connTimeout: *connTimeout,
		slots:       make(chan struct{}, *maxConns),
		quit:        make(chan struct{}),
		start:       time.Now(),
	}

	// Bridge the per-process counters into the registry so the Prometheus
	// view has them natively alongside the stage histograms.
	reg.GaugeFunc("conns_accepted_total", "connections accepted", func() float64 { return float64(srv.accepted.Load()) })
	reg.GaugeFunc("conns_handled_total", "connections handled cleanly", func() float64 { return float64(srv.handled.Load()) })
	reg.GaugeFunc("conns_errored_total", "connections ending in error", func() float64 { return float64(srv.errored.Load()) })
	reg.GaugeFunc("conns_active", "connections in flight", func() float64 { return float64(srv.active.Load()) })
	reg.GaugeFunc("forge_cache_size", "forged-chain cache occupancy", func() float64 { return float64(engine.CacheStats().Size) })
	// The origin memo explains an idle upstream leg: loads are upstream
	// handshakes (one per kept origin), hits every other connection.
	reg.GaugeFunc("origin_memo_size", "kept upstream chains", func() float64 { return float64(ic.OriginStats().Size) })
	reg.GaugeFunc("origin_memo_hits_total", "connections served from a kept upstream chain", func() float64 { return float64(ic.OriginStats().Hits) })
	reg.GaugeFunc("origin_memo_loads_total", "upstream handshakes performed", func() float64 { return float64(ic.OriginStats().Loads) })
	reg.GaugeFunc("origin_memo_evictions_total", "kept upstream chains dropped to respect the cap", func() float64 { return float64(ic.OriginStats().Evictions) })

	if *statsAddr != "" {
		mux := http.NewServeMux()
		// One exposition handler serves both formats: the legacy JSON
		// document keeps its field names; ?format=prometheus renders the
		// registry as Prometheus text.
		mux.Handle("/metrics", telemetry.Handler(reg, func() any { return srv.metrics() }))
		mux.Handle("/trace", tracer.Handler())
		statsLn, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitmd: stats listener: %v\n", err)
			os.Exit(1)
		}
		go http.Serve(statsLn, mux)
		fmt.Printf("mitmd: stats on http://%s/metrics\n", statsLn.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr, "mitmd: draining...")
		if s == syscall.SIGTERM {
			// Post-mortem trail for operator-initiated kills.
			ring.Dump(os.Stderr)
		}
		close(srv.quit)
		ln.Close()
	}()

	fmt.Printf("mitmd: intercepting on %s → %s as %q (max %d conns, cache %d hosts)\n",
		ln.Addr(), *upstream, profile.ProductName, *maxConns, *cacheCap)
	// Connection errors always reach the event ring (the Tee records
	// below the stderr handler's level); -v additionally prints them.
	onErr := func(err error) {
		slog.Debug("connection error", "err", err)
		if *verbose {
			fmt.Fprintf(os.Stderr, "mitmd: %v\n", err)
		}
	}
	srv.serve(ln, onErr)

	clean := srv.drain(*drainTimeout)
	m := srv.metrics()
	fmt.Printf("mitmd: served %d conns (%d ok, %d errored); forge cache %d/%d hosts, %d hits, %d forges\n",
		m.Conns.Accepted, m.Conns.Handled, m.Conns.Errored,
		m.ForgeCache.Size, m.ForgeCache.Cap, m.ForgeCache.Hits, m.ForgeCache.Forges)
	om := ic.OriginStats()
	fmt.Printf("mitmd: origin memo %d/%d origins, %d hits, %d loads, %d evictions\n",
		om.Size, om.Cap, om.Hits, om.Loads, om.Evictions)
	if m.Faults != nil {
		fj, _ := json.Marshal(m.Faults)
		fmt.Printf("mitmd: fault stats: %s\n", fj)
	}
	if !clean {
		fmt.Fprintf(os.Stderr, "mitmd: drain timed out with %d connections in flight\n", srv.active.Load())
		os.Exit(1)
	}
}
