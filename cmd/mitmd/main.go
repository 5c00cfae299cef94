// Command mitmd runs a TLS intercepting proxy with one of the behavior
// profiles from the study's product database — a lab instrument for
// exercising the measurement tool against known interception behaviors at
// production rates. It is built to be load-bearing: a bounded accept pool,
// per-connection deadlines, a sharded single-flight forged-chain cache,
// a key pool filled before the listener opens, graceful drain on
// SIGINT/SIGTERM, and a /metrics stats endpoint.
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
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/resilient"
	"tlsfof/internal/telemetry"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the whole command: it intercepts until stop delivers a signal,
// then drains and returns the exit code (1 when the drain timed out).
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("mitmd", flag.ExitOnError)
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mitmd: "+format+"\n", args...)
		return 1
	}
	var (
		listen       = fs.String("listen", ":8443", "listen address for intercepted clients")
		upstream     = fs.String("upstream", "", "authoritative server address (host:port); required unless -list")
		product      = fs.String("product", "", "behavior profile from the product database (see -list)")
		issuer       = fs.String("issuer", "", "custom Issuer Organization (ignored with -product)")
		keyBits      = fs.Int("keybits", 1024, "forged-leaf key size for custom profiles")
		md5          = fs.Bool("md5", false, "sign forgeries with MD5 (custom profiles)")
		list         = fs.Bool("list", false, "list known products and exit")
		cacheCap     = fs.Int("cache", proxyengine.DefaultForgeCacheCap, "forged-chain cache capacity (hosts)")
		maxConns     = fs.Int("max-conns", resilient.DefaultMaxConns, "maximum concurrent intercepted connections")
		connTimeout  = fs.Duration("conn-timeout", resilient.DefaultConnTimeout, "per-connection deadline")
		statsAddr    = fs.String("stats", "", "serve GET /metrics on this address (disabled when empty)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (disabled when empty)")
		caOut        = fs.String("ca-out", "", "write the proxy CA certificate PEM to this path")
		faultSpec    = fs.String("fault", "", "fault plan for accepted connections, each the link *:mitmd (e.g. 'all=*:*, seed=42'; grammar in DESIGN.md §9)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on shutdown")
		verbose      = fs.Bool("v", false, "log per-connection errors")
	)
	fs.Parse(args)
	if *maxConns < 1 {
		return fatalf("-max-conns must be at least 1, got %d", *maxConns)
	}

	// Telemetry plane: registry + tracer feed /metrics and /trace; the
	// event ring keeps the last structured events for post-mortem dumps
	// on panic or SIGTERM.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	ring := telemetry.NewEventRing(0)
	defer telemetry.DumpOnPanic(ring, stderr)

	if *list {
		for _, p := range classify.KnownProducts {
			name := p.Name
			if name == "" {
				name = p.CommonName
			}
			fmt.Fprintf(stdout, "%-42q %s\n", name, p.Category)
		}
		return 0
	}
	if *upstream == "" {
		return fatalf("-upstream is required")
	}
	side := &telemetry.SideDoor{Ring: ring, Stderr: stderr, Metrics: *statsAddr, Registry: reg, Tracer: tracer, Pprof: *pprofAddr}
	if err := side.Open(); err != nil {
		return fatalf("%v", err)
	}
	defer side.Close()
	if side.Metrics != "" {
		fmt.Fprintf(stdout, "mitmd: stats on http://%s/metrics\n", side.Metrics)
	}
	if side.Pprof != "" {
		fmt.Fprintf(stdout, "mitmd: pprof on http://%s/debug/pprof/\n", side.Pprof)
	}
	var faults *faultnet.Injector
	if *faultSpec != "" {
		plan, err := faultnet.Parse(*faultSpec)
		if err != nil {
			return fatalf("%v", err)
		}
		faults = faultnet.New(plan)
		faults.MountMetrics(reg)
		faults.Start()
		defer faults.Stop()
	}

	var profile proxyengine.Profile
	if *product != "" {
		p := classify.ProductByName(*product)
		if p == nil {
			return fatalf("unknown product %q (try -list)", *product)
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

	// A dedicated pool per proxy process, filled with the forged-leaf
	// keys before the listener opens, so no connection waits on RSA
	// keygen: Get generates only while the pool is short.
	pool := certgen.NewKeyPool(4, nil)
	engine, err := proxyengine.New(profile, proxyengine.Options{Pool: pool, CacheCap: *cacheCap})
	if err != nil {
		return fatalf("%v", err)
	}
	if err := <-pool.Prewarm(profile.LeafKeyBits()); err != nil {
		return fatalf("prewarm: %v", err)
	}
	if *caOut != "" {
		if err := os.WriteFile(*caOut, engine.CA.PEM(), 0o644); err != nil {
			return fatalf("write CA: %v", err)
		}
	}

	ic := proxyengine.NewInterceptor(engine, func(host string) (net.Conn, error) {
		return net.Dial("tcp", *upstream)
	})
	ic.Tracer = tracer
	accepted := reg.Counter("conns_accepted_total", "connections accepted")
	handled := reg.Counter("conns_handled_total", "connections handled cleanly")
	errored := reg.Counter("conns_errored_total", "connections ending in error")
	active := reg.Gauge("conns_active", "connections in flight")
	reg.Gauge("conns_max", "accept-pool bound on concurrent connections").Set(int64(*maxConns))
	start := time.Now()
	reg.GaugeFunc("uptime_seconds", "seconds since the proxy booted", func() float64 { return time.Since(start).Seconds() })
	forge := func(name, help string, f func(proxyengine.ForgeStats) uint64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(f(engine.CacheStats())) })
	}
	forge("forge_cache_size", "forged-chain cache occupancy", func(st proxyengine.ForgeStats) uint64 { return uint64(st.Size) })
	forge("forge_cache_hits_total", "connections served a cached forgery", func(st proxyengine.ForgeStats) uint64 { return st.Hits })
	forge("forge_cache_misses_total", "connections that waited for a forge", func(st proxyengine.ForgeStats) uint64 { return st.Misses })
	forge("forge_cache_forges_total", "substitute leaves minted", func(st proxyengine.ForgeStats) uint64 { return st.Forges })
	forge("forge_cache_evictions_total", "forgeries dropped to respect the cap", func(st proxyengine.ForgeStats) uint64 { return st.Evictions })
	// The origin memo explains an idle upstream leg: loads are upstream
	// handshakes (one per kept origin), hits every other connection.
	reg.GaugeFunc("origin_memo_size", "kept upstream chains", func() float64 { return float64(ic.OriginStats().Size) })
	reg.GaugeFunc("origin_memo_hits_total", "connections served from a kept upstream chain", func() float64 { return float64(ic.OriginStats().Hits) })
	reg.GaugeFunc("origin_memo_loads_total", "upstream handshakes performed", func() float64 { return float64(ic.OriginStats().Loads) })
	reg.GaugeFunc("origin_memo_evictions_total", "kept upstream chains dropped to respect the cap", func() float64 { return float64(ic.OriginStats().Evictions) })

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fatalf("%v", err)
	}
	if faults != nil {
		ln = faults.Listener("mitmd", ln)
		fmt.Fprintf(stdout, "mitmd: fault injection on (%q)\n", *faultSpec)
	}
	conns := resilient.NewPool(ln, *maxConns, *connTimeout)

	go func() {
		s := <-stop
		fmt.Fprintln(stderr, "mitmd: draining...")
		if s == syscall.SIGTERM {
			// Post-mortem trail for operator-initiated kills.
			ring.Dump(stderr)
		}
		conns.Close()
	}()

	fmt.Fprintf(stdout, "mitmd: intercepting on %s → %s as %q (max %d conns, cache %d hosts)\n",
		ln.Addr(), *upstream, profile.ProductName, *maxConns, *cacheCap)
	conns.Serve(func(conn net.Conn) bool {
		accepted.Inc()
		active.Add(1)
		defer active.Add(-1)
		if err := ic.HandleConn(conn); err != nil {
			errored.Inc()
			slog.Debug("connection error", "err", err) // into the event ring; -v also prints it
			if *verbose {
				fmt.Fprintf(stderr, "mitmd: %v\n", err)
			}
			return false
		}
		handled.Inc()
		return false
	})

	clean := conns.Drain(*drainTimeout)
	fc := engine.CacheStats()
	fmt.Fprintf(stdout, "mitmd: served %d conns (%d ok, %d errored); forge cache %d/%d hosts, %d hits, %d forges\n",
		accepted.Value(), handled.Value(), errored.Value(), fc.Size, fc.Cap, fc.Hits, fc.Forges)
	om := ic.OriginStats()
	fmt.Fprintf(stdout, "mitmd: origin memo %d/%d origins, %d hits, %d loads, %d evictions\n",
		om.Size, om.Cap, om.Hits, om.Loads, om.Evictions)
	if faults != nil {
		fj, _ := json.Marshal(faults.Stats())
		fmt.Fprintf(stdout, "mitmd: fault stats: %s\n", fj)
	}
	if !clean {
		fmt.Fprintf(stderr, "mitmd: drain timed out with %d connections in flight\n", active.Value())
		return 1
	}
	return 0
}
