// Command reportd runs the reporting server: it accepts the measurement
// tool's concatenated-PEM POSTs, compares each chain against the
// authoritative chain, and prints/export measurements — the server side of
// Figure 4.
//
// The authoritative chain is supplied as a PEM file per host:
//
//	reportd -listen=:8080 -host=tlsresearch.byu.edu -reference=ref.pem
//	reportd -listen=:8080 -refdir=refs/   # one <host>.pem per file
//
// Measurements flow through the sharded ingest pipeline (internal/ingest):
// -shards partitions the store, each request commits before it is acked,
// and clients may stream many reports per connection to /ingest/batch in
// the compact binary wire format instead of one concatenated-PEM POST per
// report to /report.
//
// With -data-dir the pipeline is durable (DESIGN.md §10): every accepted
// measurement is appended to a per-shard WAL before its ack,
// -snapshot-every folds the WAL into compact snapshots on a timer, boot
// recovers whatever a previous process persisted, and SIGTERM/SIGINT
// shut down gracefully — stop accepting, checkpoint every WAL into its
// snapshot, and close it — so a restart never forfeits the collected
// study.
//
// With -cluster-id and -cluster-peers the shards are a cluster.Node's
// instead (DESIGN.md §12): any node observes any report, whatever mix of
// hosts an upload carries, and a cluster.RouteClient delivers each
// measurement to the node owning its host before the upload is acked.
package main

import (
	"context"
	"crypto/x509/pkix"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tlsfof/internal/analysis"
	"tlsfof/internal/certgen"
	"tlsfof/internal/chaincache"
	"tlsfof/internal/classify"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/geo"
	"tlsfof/internal/ingest"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/x509util"
)

// hostChain is one registered authoritative chain.
type hostChain struct {
	host  string
	chain [][]byte
}

// serverConfig is everything main parses from flags, separated so the
// regression tests can run the identical server in-process.
type serverConfig struct {
	listen        string
	campaign      string
	shards        int
	obsCache      int
	dataDir       string
	snapshotEvery time.Duration
	refs          []hostChain
	logw          io.Writer // server log destination (os.Stdout in main)

	// clusterID switches the server into cluster mode (DESIGN.md §12):
	// the shards are mounted by a cluster.Node (fsync per batch, peer
	// replication, ring routing) instead of the ingest pipeline, the
	// collector commits through a cluster.RouteClient, and the
	// /cluster/* + /repl/tail surfaces are mounted. clusterPeers is the
	// full "id=url,..." member list including this node.
	clusterID    string
	clusterPeers string
	// chaosSpec, when non-empty, arms a faultnet injector on this node's
	// outbound links (replication tails, relay forwards, routed report
	// measurements): a wall-clock phase schedule of link and byte faults
	// in the fault language (DESIGN.md §9). Endpoint names are member IDs.
	chaosSpec string
}

// server is the assembled reporting server. Exactly one of pipeline
// (single-node mode) or node (cluster mode) is non-nil; shards are the
// shard engines whichever of them mounted, and everything that reads
// storage (tables, /stats, WAL accounting, the shutdown snapshot) goes
// through them, not through the mode.
type server struct {
	cfg      serverConfig
	pipeline *ingest.Pipeline
	node     *cluster.Node
	shards   []*durable.Shard
	col      *core.Collector
	httpSrv  *http.Server
	ln       net.Listener
	started  time.Time

	// The telemetry plane: stage histograms and probe traces from the
	// decode → observe → queue → WAL → store path, every other number
	// /metrics serves (see mountMetrics), and the structured-event ring
	// dumped at shutdown (run installs it before storage opens, so it
	// holds the boot's recovery records).
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	ring   *telemetry.EventRing

	// chaos, in cluster mode with -chaos, injects the armed faults into
	// every outbound peer connection. Nil otherwise.
	chaos *faultnet.Injector

	// audits holds cmd/audit battery verdicts POSTed to /audit/ingest,
	// rendered by /table/audit and /table/audit-cards. Separate from the
	// measurement pipeline: audit cells are lab verdicts about products,
	// not field measurements, and do not enter the WAL/snapshot plane.
	audits *store.AuditStore
}

func newServer(cfg serverConfig, ring *telemetry.EventRing) (*server, error) {
	if cfg.logw == nil {
		cfg.logw = io.Discard
	}
	if len(cfg.refs) == 0 {
		return nil, fmt.Errorf("reportd: no authoritative chains registered")
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 0)
	var pipeline *ingest.Pipeline
	var node *cluster.Node
	var shards []*durable.Shard
	var chaos *faultnet.Injector
	var sink core.Sink
	if cfg.clusterID != "" {
		if cfg.dataDir == "" {
			return nil, fmt.Errorf("reportd: cluster mode requires -data-dir")
		}
		if cfg.snapshotEvery > 0 {
			// A cluster node never checkpoints its WALs (replica
			// followers tail them by sequence number): refuse rather than
			// ignore the flag.
			return nil, fmt.Errorf("reportd: -snapshot-every does not apply in cluster mode")
		}
		members, err := cluster.ParseMembers(cfg.clusterPeers)
		if err != nil {
			return nil, err
		}
		ccfg := cluster.Config{
			ID:       cfg.clusterID,
			Members:  members,
			DataDir:  cfg.dataDir,
			Shards:   cfg.shards,
			Registry: reg,
		}
		if cfg.chaosSpec != "" {
			plan, err := faultnet.Parse(cfg.chaosSpec)
			if err != nil {
				return nil, fmt.Errorf("reportd: -chaos: %w", err)
			}
			chaos = faultnet.New(plan)
			for _, m := range members {
				host := strings.TrimPrefix(strings.TrimPrefix(m.URL, "http://"), "https://")
				chaos.Register(m.ID, strings.TrimSuffix(host, "/"))
			}
			chaos.MountMetrics(reg)
			chaos.Start()
			ccfg.HTTPClient = resilient.SplitTimeoutClient(0, 0, chaos.DialContext(cfg.clusterID, nil))
			fmt.Fprintf(cfg.logw, "reportd: chaos plan armed on %s's links: %d phases\n", cfg.clusterID, len(plan.Phases))
		}
		node, err = cluster.Open(ccfg)
		if err != nil {
			return nil, err
		}
		node.Start()
		// Reports are observed on whichever node receives them; their
		// measurements enter the cluster's stores the way every other
		// producer's do — routed by host to the owner's /cluster/ingest,
		// this node's own included — over the node's HTTP client, so a
		// -chaos plan covers these links too. The router shares the node's
		// membership view: drain and death marks reroute it at once. Its
		// seed stays clock-derived — batch IDs key the owners' dedup
		// tables and must differ across nodes.
		route, err := cluster.NewRouteClient(cluster.RouteConfig{
			Members: node.Members(), HTTPClient: ccfg.HTTPClient, Registry: reg,
		})
		if err != nil {
			node.Close()
			return nil, err
		}
		sink, shards = route, node.Shards()
	} else {
		var recovery []durable.Info
		var err error
		pipeline, recovery, err = ingest.OpenPipeline(ingest.Config{Shards: cfg.shards, Tracer: tracer, WALDir: cfg.dataDir})
		if err != nil {
			return nil, err
		}
		durable.LogRecovery(recovery)
		pipeline.MountMetrics(reg)
		sink, shards = pipeline, pipeline.Shards()
	}
	col := core.NewCollector(classify.NewClassifier(), geo.NewDB(), sink)
	col.Campaign = cfg.campaign
	col.Tracer = tracer
	if cfg.obsCache > 0 {
		// The hot-path memo: repeated (host, chain) pairs — the paper's
		// whole point is that a handful of products dominate — skip chain
		// parsing and classification entirely.
		col.Cache = core.NewObservationCache(cfg.obsCache, 0)
	}
	for _, ref := range cfg.refs {
		col.SetAuthoritative(ref.host, ref.chain)
		fmt.Fprintf(cfg.logw, "reportd: registered authoritative chain for %s (%d certs)\n", ref.host, len(ref.chain))
	}
	s := &server{
		cfg: cfg, pipeline: pipeline, node: node, shards: shards, col: col, started: time.Now(),
		reg: reg, tracer: tracer, ring: ring, chaos: chaos,
		audits: store.NewAuditStore(),
	}
	s.mountMetrics()
	s.httpSrv = &http.Server{Handler: s.mux()}
	return s, nil
}

// snapshot folds the live shards into one queryable DB. It is
// O(retained records) — export-path only.
func (s *server) snapshot() *store.DB {
	dbs := make([]*store.DB, len(s.shards))
	for i, sh := range s.shards {
		dbs[i] = sh.DB
	}
	return store.Merge(0, dbs...)
}

// totals sums the per-shard totals and unions their proxied countries,
// both read from per-country aggregates, never from the proxied records
// the tables are queried from: polling costs O(countries) at any store
// size.
func (s *server) totals() (tot store.Agg, countries int) {
	seen := make(map[string]struct{})
	for _, sh := range s.shards {
		t := sh.DB.Totals()
		tot.Tested += t.Tested
		tot.Proxied += t.Proxied
		for _, c := range sh.DB.ProxiedCountryList() {
			seen[c] = struct{}{}
		}
	}
	return tot, len(seen)
}

// summary answers /stats.
func (s *server) summary() string {
	tot, countries := s.totals()
	return fmt.Sprintf("store: %d tested, %d proxied (%.2f%%), %d countries",
		tot.Tested, tot.Proxied, 100*tot.Rate(), countries)
}

// mountMetrics registers the server's own numbers next to those its
// storage mount registered (ingest_*, or cluster_*, repl_* and route_*):
// uptime, WAL totals with -data-dir and the observation memo when it is
// on. The -chaos injector mounts its own (chaos_*, faultnet_*).
func (s *server) mountMetrics() {
	reg := s.reg
	reg.GaugeFunc("uptime_seconds", "seconds since the server booted", func() float64 {
		return time.Since(s.started).Seconds()
	})
	if s.cfg.dataDir != "" {
		walTotal := func(name, help string, f func(durable.Stats) float64) {
			reg.GaugeFunc(name, help, func() float64 {
				var sum float64
				for _, st := range durable.WALStats(s.shards) {
					sum += f(st)
				}
				return sum
			})
		}
		walTotal("wal_disk_bytes", "WAL segment and snapshot bytes on disk, all shards", func(st durable.Stats) float64 {
			return float64(st.WALBytes + st.SnapshotBytes)
		})
		walTotal("wal_fsyncs_total", "WAL fsyncs, all shards", func(st durable.Stats) float64 { return float64(st.Fsyncs) })
		walTotal("wal_appended_frames_total", "frames appended to the WALs since boot", func(st durable.Stats) float64 {
			return float64(st.AppendedFrames)
		})
		walTotal("wal_segments", "WAL segment files, all shards", func(st durable.Stats) float64 { return float64(st.Segments) })
	}
	if cache := s.col.Cache; cache != nil {
		memo := func(name, help string, f func(chaincache.Stats) float64) {
			reg.GaugeFunc(name, help, func() float64 { return f(cache.Stats()) })
		}
		memo("obs_cache_size", "distinct (host, chain) pairs held by the observation memo", func(st chaincache.Stats) float64 { return float64(st.Size) })
		memo("obs_cache_hits_total", "reports observed from the memo", func(st chaincache.Stats) float64 { return float64(st.Hits) })
		memo("obs_cache_misses_total", "reports that waited for a derivation", func(st chaincache.Stats) float64 { return float64(st.Misses) })
		memo("obs_cache_derives_total", "observations derived (chain parsed and classified)", func(st chaincache.Stats) float64 { return float64(st.Derives) })
		memo("obs_cache_evictions_total", "memo entries dropped to respect the cap", func(st chaincache.Stats) float64 { return float64(st.Evictions) })
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/report", s.col)
	mux.Handle("/ingest/batch", ingest.BatchHandler(s.col))
	if s.node != nil {
		nodeHandler := s.node.Handler()
		mux.Handle("/cluster/", nodeHandler)
		mux.Handle("/repl/", nodeHandler)
	}
	mux.Handle("/metrics", telemetry.Handler(s.reg))
	mux.Handle("/trace", s.tracer.Handler())
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, s.summary())
	})
	mux.HandleFunc("/export.csv", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		s.snapshot().WriteCSV(w)
	})
	// Live table renders over the captured data: the examples/live-wire
	// runbook curls these after driving a probe fleet through mitmd.
	tables := map[string]func(io.Writer, *store.DB) error{
		"/table/4":          func(w io.Writer, db *store.DB) error { return analysis.Table4(w, db, 25) },
		"/table/5":          analysis.Table5,
		"/table/6":          analysis.Table6,
		"/table/negligence": analysis.Negligence,
		"/table/products":   func(w io.Writer, db *store.DB) error { return analysis.Products(w, db, 25) },
	}
	for path, render := range tables {
		render := render
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := render(w, s.snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	// The audit plane: cmd/audit pushes its battery grid here, the two
	// audit tables render whatever has been pushed so far.
	mux.HandleFunc("/audit/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		cells, err := store.DecodeAuditCells(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, c := range cells {
			s.audits.Record(c)
		}
		fmt.Fprintf(w, "ok: %d cells (%d total)\n", len(cells), s.audits.Len())
	})
	auditTables := map[string]func(io.Writer, []store.AuditCell) error{
		"/table/audit":       analysis.AuditGrid,
		"/table/audit-cards": analysis.AuditCards,
	}
	for path, render := range auditTables {
		render := render
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := render(w, s.audits.Cells()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	return mux
}

// endpoints lists what mux serves in this server's mode, for the startup
// banner.
func (s *server) endpoints() string {
	list := "POST /report?host=..., POST /ingest/batch, POST /audit/ingest, GET /stats, /metrics, /trace, "
	if s.node != nil {
		list += "/cluster/*, /repl/*, "
	}
	return list + "/export.csv, /table/{4,5,6,negligence,products,audit,audit-cards}"
}

// start binds the listener (so tests can read the ephemeral port before
// serving begins).
func (s *server) start() error {
	ln, err := net.Listen("tcp", s.cfg.listen)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// serve runs the HTTP server and the snapshot timer until a signal
// arrives, then shuts down gracefully: stop accepting, checkpoint every
// WAL into its snapshot, and close the WALs (final fsync).
func (s *server) serve(sig <-chan os.Signal) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.httpSrv.Serve(s.ln) }()

	var tick <-chan time.Time
	if s.cfg.snapshotEvery > 0 && s.cfg.dataDir != "" {
		ticker := time.NewTicker(s.cfg.snapshotEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			if err := s.pipeline.Checkpoint(); err != nil {
				fmt.Fprintf(s.cfg.logw, "reportd: checkpoint: %v\n", err)
			}
		case err := <-serveErr:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case got := <-sig:
			fmt.Fprintf(s.cfg.logw, "reportd: %v: shutting down...\n", got)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.httpSrv.Shutdown(ctx); err != nil {
				// A slow client mid-upload outlived the timeout: hard-close
				// its connection; only persistence failures are fatal. A
				// handler still unwinding can ingest after close below —
				// defined (counted as a WAL error), not a hazard.
				fmt.Fprintf(s.cfg.logw, "reportd: graceful shutdown timed out (%v), closing connections\n", err)
				s.httpSrv.Close()
			}
			cancel()
			err := s.close()
			// Post-mortem trail: every event, those below stderr's
			// warning level included.
			s.ring.Dump(s.cfg.logw)
			tot, _ := s.totals()
			fmt.Fprintf(s.cfg.logw, "reportd: shutdown complete (%d tested, %d proxied)\n", tot.Tested, tot.Proxied)
			return err
		}
	}
}

// close stops the chaos injector and closes what newServer opened: a
// node fsyncs and closes its WALs (uncompacted: followers tail them by
// seq); a pipeline checkpoints and closes, so boot replays none.
func (s *server) close() error {
	if s.chaos != nil {
		s.chaos.Stop()
	}
	if s.node != nil {
		return s.node.Close()
	}
	err := s.pipeline.Checkpoint()
	if cerr := s.pipeline.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the whole command: it serves until stop delivers a signal, then
// shuts down gracefully and returns the exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("reportd", flag.ExitOnError)
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "reportd: "+format+"\n", args...)
		return 1
	}
	var (
		listen    = fs.String("listen", ":8080", "HTTP listen address")
		host      = fs.String("host", "", "single probe host name (with -reference)")
		refPath   = fs.String("reference", "", "PEM file with the authoritative chain for -host")
		refDir    = fs.String("refdir", "", "directory of <host>.pem authoritative chains")
		campaign  = fs.String("campaign", "manual", "campaign label stamped onto measurements")
		shards    = fs.Int("shards", 4, "ingest pipeline shards (1 = single store)")
		obsCache  = fs.Int("obs-cache", chaincache.DefaultCap, "observation cache capacity in distinct (host, chain) pairs (0 disables)")
		dataDir   = fs.String("data-dir", "", "durable per-shard WAL + snapshot directory (recovered on boot; graceful shutdown snapshots)")
		snapEvery = fs.Duration("snapshot-every", 0, "checkpoint the WALs on this cadence (e.g. 5m; 0 = only at shutdown; with -data-dir, not in cluster mode)")
		pprofA    = fs.String("pprof", "", "serve net/http/pprof on this address (disabled when empty)")
		selfRef   = fs.String("selfsigned", "", "generate an in-process self-signed authoritative chain for this host (smoke tests / CI; no PEM files needed)")
		clusterID = fs.String("cluster-id", "", "run as this member of a reportd cluster (requires -cluster-peers and -data-dir)")
		clusterPs = fs.String("cluster-peers", "", "full cluster member list as id=url,id=url,... (including this node)")
		chaosSpec = fs.String("chaos", "", "fault plan for outbound cluster links, e.g. 'seed=7; name=cut, for=10s, cut=a:b' (endpoints are cluster member IDs; grammar in DESIGN.md §9)")
	)
	fs.Parse(args)
	switch {
	case *shards < 1:
		return fatalf("-shards must be at least 1, got %d", *shards)
	case *obsCache < 0:
		return fatalf("-obs-cache must not be negative (0 disables it), got %d", *obsCache)
	case *snapEvery < 0:
		return fatalf("-snapshot-every must not be negative, got %v", *snapEvery)
	case *snapEvery > 0 && *dataDir == "":
		return fatalf("-snapshot-every needs -data-dir")
	}

	refs, err := loadRefs(*selfRef, *host, *refPath, *refDir)
	if err != nil {
		return fatalf("%v", err)
	}
	// The side door opens before storage does, so the records a boot
	// files while it recovers its shards reach the ring.
	ring := telemetry.NewEventRing(0)
	side := &telemetry.SideDoor{Ring: ring, Stderr: stderr, Pprof: *pprofA}
	if err := side.Open(); err != nil {
		return fatalf("%v", err)
	}
	defer side.Close()
	if side.Pprof != "" {
		fmt.Fprintf(stdout, "reportd: pprof on http://%s/debug/pprof/\n", side.Pprof)
	}
	defer telemetry.DumpOnPanic(ring, stderr)
	srv, err := newServer(serverConfig{
		listen:        *listen,
		campaign:      *campaign,
		shards:        *shards,
		obsCache:      *obsCache,
		dataDir:       *dataDir,
		snapshotEvery: *snapEvery,
		refs:          refs,
		logw:          stdout,
		clusterID:     *clusterID,
		clusterPeers:  *clusterPs,
		chaosSpec:     *chaosSpec,
	}, ring)
	if err != nil {
		return fatalf("%v", err)
	}
	if err := srv.start(); err != nil {
		srv.close()
		return fatalf("%v", err)
	}
	durableNote := ""
	if *dataDir != "" {
		durableNote = fmt.Sprintf(", durable WAL in %s", *dataDir)
	}
	if *clusterID != "" {
		durableNote += fmt.Sprintf(", cluster member %q of [%s]", *clusterID, *clusterPs)
	}
	fmt.Fprintf(stdout, "reportd: listening on %s with %d ingest shards, obs cache %d%s (%s)\n",
		srv.addr(), *shards, *obsCache, durableNote, srv.endpoints())

	if err := srv.serve(stop); err != nil {
		return fatalf("%v", err)
	}
	return 0
}

// loadRefs builds the authoritative chains the flags name: one minted
// in-process for -selfsigned, one PEM file for -host with -reference, or
// every <host>.pem under -refdir.
func loadRefs(selfRef, host, refPath, refDir string) ([]hostChain, error) {
	switch {
	case selfRef != "":
		// CI and smoke tests boot reportd with no out-of-band PEM: mint a
		// throwaway CA and leaf for the named host in-process.
		ca, err := certgen.NewRootCA(certgen.CAConfig{
			Subject: pkix.Name{CommonName: "reportd selfsigned", Organization: []string{"tlsfof"}},
			KeyBits: 1024,
		})
		if err != nil {
			return nil, fmt.Errorf("selfsigned CA: %w", err)
		}
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: selfRef, KeyBits: 1024})
		if err != nil {
			return nil, fmt.Errorf("selfsigned leaf: %w", err)
		}
		return []hostChain{{host: selfRef, chain: leaf.ChainDER}}, nil
	case host != "" && refPath != "":
		ref, err := loadRef(host, refPath)
		return []hostChain{ref}, err
	case refDir != "":
		entries, err := os.ReadDir(refDir)
		if err != nil {
			return nil, err
		}
		var refs []hostChain
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".pem") {
				continue
			}
			ref, err := loadRef(strings.TrimSuffix(e.Name(), ".pem"), filepath.Join(refDir, e.Name()))
			if err != nil {
				return nil, err
			}
			refs = append(refs, ref)
		}
		return refs, nil
	}
	return nil, fmt.Errorf("need -host + -reference, -refdir, or -selfsigned")
}

func loadRef(host, path string) (hostChain, error) {
	pemBytes, err := os.ReadFile(path)
	if err != nil {
		return hostChain{}, err
	}
	chain, err := x509util.DecodeChainPEM(pemBytes)
	if err != nil {
		return hostChain{}, fmt.Errorf("%s: %w", path, err)
	}
	return hostChain{host: host, chain: chain}, nil
}
