// Command tlsproxy-probe performs the paper's partial TLS handshake
// against a server and prints the certificate chain the network path
// presents. With -reference (a PEM file holding the authoritative chain)
// it runs the full detection: mismatch anatomy and claimed-issuer
// classification. Exit status 2 signals a detected TLS proxy.
//
// With -fleet N it becomes the measurement side of the live-wire loop: N
// concurrent workers probe -addr over real sockets (rotating over -hosts
// for SNI), and stream every captured chain to a reportd /ingest/batch
// endpoint in the binary wire format. The server does the comparing; the
// fleet just probes and uploads, exactly like the paper's deployed tool.
//
// Usage:
//
//	tlsproxy-probe -addr=example.com:443
//	tlsproxy-probe -addr=10.0.0.1:443 -sni=example.com -reference=ref.pem
//	tlsproxy-probe -addr=127.0.0.1:8443 -fleet=8 -count=200 \
//	    -hosts=a.example,b.example -report=http://127.0.0.1:8080
//	tlsproxy-probe -addr=127.0.0.1:8443 -fleet=32 -duration=30s -report=...
package main

import (
	"crypto/x509"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"tlsfof"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/ingest"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
)

func main() {
	var (
		addr    = flag.String("addr", "", "host:port to probe (required)")
		sni     = flag.String("sni", "", "SNI server name (default: host from -addr)")
		refPath = flag.String("reference", "", "PEM file with the authoritative chain; enables detection")
		timeout = flag.Duration("timeout", 10*time.Second, "probe timeout")
		pemOut  = flag.Bool("pem", false, "print the captured chain as PEM")

		fleet    = flag.Int("fleet", 0, "run N concurrent probe workers (enables fleet mode)")
		count    = flag.Int("count", 0, "fleet: probes per worker (0 = run until -duration)")
		duration = flag.Duration("duration", 10*time.Second, "fleet: wall-clock budget when -count is 0")
		hosts    = flag.String("hosts", "", "fleet: comma-separated SNI names to rotate over (default -sni)")
		report   = flag.String("report", "", "fleet: reportd base URL or /ingest/batch endpoint")
		batch    = flag.Int("batch", ingest.DefaultClientBatch, "fleet: reports per upload batch")

		faultSpec  = flag.String("fault", "", "fleet: inject deterministic faults on every probe connection (e.g. \"all,seed=7\"; see internal/faultnet.ParseSpec)")
		faultIn    = flag.String("fault-ingest", "", "fleet: inject faults on the report-upload connections")
		inRetries  = flag.Int("ingest-retries", 2, "fleet: retries per failed upload flush")
		faultStats = flag.Bool("fault-stats", false, "fleet: print fault-injection stats at exit")

		metricsAddr = flag.String("metrics-addr", "", "fleet: serve GET /metrics (JSON or ?format=prometheus) and /trace on this address mid-run")
		traceSeed   = flag.Uint64("trace-seed", 1, "fleet: seed for deterministic per-probe trace IDs carried to mitmd (ClientHello session id) and reportd (wire frame); 0 disables tracing")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "tlsproxy-probe: -addr is required")
		os.Exit(1)
	}

	var probeFaults, ingestFaults *faultnet.Plan
	var err error
	if *faultSpec != "" {
		if probeFaults, err = faultnet.ParseSpec(*faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "tlsproxy-probe: %v\n", err)
			os.Exit(1)
		}
	}
	if *faultIn != "" {
		if ingestFaults, err = faultnet.ParseSpec(*faultIn); err != nil {
			fmt.Fprintf(os.Stderr, "tlsproxy-probe: %v\n", err)
			os.Exit(1)
		}
	}
	if *fleet > 0 {
		cfg := fleetConfig{
			addr: *addr, sni: *sni, hosts: *hosts, report: *report,
			workers: *fleet, count: *count, duration: *duration, timeout: *timeout,
			batch: *batch, retries: *inRetries,
			probeFaults: probeFaults, ingestFaults: ingestFaults, faultStats: *faultStats,
			metricsAddr: *metricsAddr, traceSeed: *traceSeed,
		}
		os.Exit(runFleet(cfg))
	}
	if probeFaults != nil || ingestFaults != nil {
		fmt.Fprintln(os.Stderr, "tlsproxy-probe: -fault/-fault-ingest need -fleet")
		os.Exit(1)
	}
	runSingle(*addr, *sni, *refPath, *timeout, *pemOut)
}

// fleetConfig carries the fleet-mode knobs.
type fleetConfig struct {
	addr, sni, hosts, report  string
	workers, count            int
	duration, timeout         time.Duration
	batch, retries            int
	probeFaults, ingestFaults *faultnet.Plan
	faultStats                bool
	metricsAddr               string
	traceSeed                 uint64
}

// fleetTraceID derives the deterministic trace ID of probe i on worker w
// under seed: seed in the top bits, worker in the middle, 1-based probe
// index low — unique across a fleet, and computable offline so a runbook
// can name "worker 0, probe 1" as an ID before the run starts.
func fleetTraceID(seed uint64, w, i int) telemetry.TraceID {
	return telemetry.TraceID(seed<<40 | uint64(w&0xffff)<<24 | uint64(i+1)&0xffffff)
}

// runFleet drives cfg.workers workers of repeated probes through the
// proxy path and streams captures to reportd. Returns the process exit
// code.
func runFleet(cfg fleetConfig) int {
	var sniNames []string
	for _, h := range strings.Split(cfg.hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			sniNames = append(sniNames, h)
		}
	}
	if len(sniNames) == 0 {
		name := cfg.sni
		if name == "" {
			if h, _, err := net.SplitHostPort(cfg.addr); err == nil && net.ParseIP(h) == nil {
				name = h
			}
		}
		if name == "" {
			fmt.Fprintln(os.Stderr, "tlsproxy-probe: fleet mode needs -hosts or -sni (no SNI derivable from -addr)")
			return 1
		}
		sniNames = []string{name}
	}

	var client *ingest.Client
	if cfg.report != "" {
		url := strings.TrimSuffix(cfg.report, "/")
		if !strings.HasSuffix(url, "/ingest/batch") {
			url += "/ingest/batch"
		}
		client = ingest.NewClient(url)
		client.BatchSize = cfg.batch
		client.Retries = cfg.retries
		if cfg.ingestFaults != nil {
			client.HTTPClient = &http.Client{Transport: cfg.ingestFaults.Transport()}
		}
	}

	// Telemetry: probe counters, the probe-stage latency histogram, and
	// the per-probe traces the fleet propagates to mitmd and reportd.
	// Always mounted — the per-probe cost is atomic ops on fixed cells.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	probes := reg.Counter("fleet_probes_total", "probes that captured a chain")
	failures := reg.Counter("fleet_probe_failures_total", "probes that failed to dial or handshake")
	reg.Gauge("fleet_workers", "concurrent probe workers").Set(int64(cfg.workers))
	var (
		deadline = time.Now().Add(cfg.duration)
		wg       sync.WaitGroup
	)
	if cfg.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(reg))
		mux.Handle("/trace", tracer.Handler())
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlsproxy-probe: metrics listener: %v\n", err)
			return 1
		}
		go http.Serve(ln, mux)
		fmt.Printf("fleet: metrics on http://%s/metrics\n", ln.Addr())
	}
	if cfg.traceSeed != 0 {
		fmt.Printf("fleet: tracing on (seed %d; worker 0 probe 1 = id %s)\n",
			cfg.traceSeed, fleetTraceID(cfg.traceSeed, 0, 0))
	}

	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One Prober per worker: record/handshake buffers and marshal
			// scratch are reused across every probe this goroutine runs —
			// the steady-state loop allocates only the captured chain. The
			// chain arena outlives the Prober, so handing it to the
			// batching upload client is safe.
			prober := tlswire.NewProber()
			dialer := net.Dialer{Timeout: cfg.timeout}
			// sidBuf is the worker's session-id scratch: the trace ID is
			// re-encoded in place each probe, no per-probe allocation.
			var sidBuf [telemetry.TraceSessionIDLen]byte
			for i := 0; cfg.count > 0 && i < cfg.count || cfg.count == 0 && time.Now().Before(deadline); i++ {
				host := sniNames[(w+i)%len(sniNames)]
				var traceID telemetry.TraceID
				opts := tlswire.ProbeOptions{ServerName: host, Timeout: cfg.timeout}
				if cfg.traceSeed != 0 {
					traceID = fleetTraceID(cfg.traceSeed, w, i)
					opts.SessionID = telemetry.AppendTraceSessionID(sidBuf[:0], traceID)
				}
				conn, err := dialer.Dial("tcp", cfg.addr)
				if err != nil {
					failures.Inc()
					continue
				}
				if cfg.probeFaults != nil {
					conn = cfg.probeFaults.Wrap(conn)
				}
				probeStart := time.Now()
				res, err := prober.Probe(conn, opts)
				conn.Close()
				if err != nil {
					failures.Inc()
					continue
				}
				tracer.Record(traceID, telemetry.StageProbe, probeStart, res.HandshakeTime)
				probes.Inc()
				if client != nil {
					if err := client.Report(ingest.Report{Host: host, ChainDER: res.ChainDER, Trace: uint64(traceID)}); err != nil {
						fmt.Fprintf(os.Stderr, "tlsproxy-probe: upload: %v\n", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if client != nil {
		if err := client.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "tlsproxy-probe: final flush: %v\n", err)
		}
	}
	ok, fail := probes.Value(), failures.Value()
	fmt.Printf("fleet: %d workers, %d probes ok, %d failed in %v (%.0f probes/sec)\n",
		cfg.workers, ok, fail, elapsed.Round(time.Millisecond), float64(ok)/elapsed.Seconds())
	if cfg.faultStats {
		for label, plan := range map[string]*faultnet.Plan{"probe": cfg.probeFaults, "ingest": cfg.ingestFaults} {
			if plan == nil {
				continue
			}
			js, _ := json.Marshal(plan.Stats())
			fmt.Printf("fleet: %s fault stats (seed %d): %s\n", label, plan.Seed, js)
		}
	}
	if client != nil {
		st := client.Stats()
		fmt.Printf("fleet: uploaded %d reports in %d posts (%d accepted, %d rejected, %d retries, %d post errors)\n",
			st.Reported, st.Posts, st.Accepted, st.Rejected, st.Retries, st.PostErrors)
		if st.PostErrors > 0 || st.Rejected > 0 {
			return 1
		}
	}
	// Under probe-side fault injection a failing probe is the expected
	// outcome, not a fleet failure.
	if ok == 0 && fail > 0 && cfg.probeFaults == nil {
		return 1
	}
	return 0
}

// runSingle is the original one-shot probe + optional detection.
func runSingle(addr, sni, refPath string, timeout time.Duration, pemOut bool) {
	report, err := tlsfof.Probe(addr, sni, timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsproxy-probe: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("captured %d certificate(s) in %v\n", len(report.ChainDER), report.HandshakeTime.Round(time.Millisecond))
	for i, der := range report.ChainDER {
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			fmt.Printf("  [%d] unparseable: %v\n", i, err)
			continue
		}
		fmt.Printf("  [%d] subject=%q issuer=%q alg=%s\n",
			i, cert.Subject.String(), cert.Issuer.String(), cert.SignatureAlgorithm)
	}
	if pemOut {
		os.Stdout.Write(report.ChainPEM)
	}

	if refPath == "" {
		return
	}
	refPEM, err := os.ReadFile(refPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsproxy-probe: read reference: %v\n", err)
		os.Exit(1)
	}
	host := sni
	if host == "" {
		host = addr
	}
	obs, err := tlsfof.DetectPEM(host, refPEM, report.ChainPEM)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsproxy-probe: detect: %v\n", err)
		os.Exit(1)
	}
	if !obs.Proxied {
		fmt.Println("verdict: chains match — no TLS proxy detected")
		return
	}
	fmt.Println("verdict: TLS PROXY DETECTED")
	fmt.Printf("  claimed issuer: O=%q CN=%q (category: %s)\n", obs.IssuerOrg, obs.IssuerCN, obs.Category)
	if obs.ProductName != "" {
		fmt.Printf("  known product: %s\n", obs.ProductName)
	}
	fmt.Printf("  substitute key: %d bits (original %d)\n", obs.KeyBits, obs.OriginalKeyBits)
	if obs.MD5Signed {
		fmt.Println("  WARNING: substitute certificate signed with MD5")
	}
	if obs.IssuerCopied {
		fmt.Println("  WARNING: substitute claims the authoritative issuer without its key")
	}
	if obs.SubjectDrift {
		fmt.Println("  WARNING: substitute subject does not match the probed host")
	}
	os.Exit(2)
}
