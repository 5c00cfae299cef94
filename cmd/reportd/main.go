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
// -shards partitions the store, -batch sets the per-shard commit size, and
// clients may stream many reports per connection to /ingest/batch in the
// compact binary wire format instead of one concatenated-PEM POST per
// report to /report.
//
// With -data-dir the pipeline is durable (DESIGN.md §10): every accepted
// measurement is written ahead to a per-shard WAL, -snapshot-every folds
// the WAL into compact snapshots on a timer, boot recovers whatever a
// previous process persisted, and SIGTERM/SIGINT shut down gracefully —
// stop accepting, commit the pending reports, checkpoint every WAL into
// its snapshot, and close it — so a restart never forfeits the collected
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
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
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
	batch         int
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
	// chaosSpec, when non-empty, arms a faultnet chaos controller on this
	// node's outbound links (replication tails, relay forwards, routed
	// report measurements): a wall-clock phase schedule
	// of cuts, latency, and throttles in the faultnet DSL. Endpoint names
	// are peer member IDs.
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
	recovery []durable.Info
	started  time.Time

	// The telemetry plane: stage histograms and probe traces from the
	// decode → observe → queue → WAL → store path, every other number
	// /metrics serves (see mountMetrics), and a structured-event ring
	// dumped at shutdown.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	ring   *telemetry.EventRing

	// chaos, in cluster mode with -chaos, injects the armed link faults
	// into every outbound peer connection. Nil otherwise.
	chaos *faultnet.Controller

	// audits holds cmd/audit battery verdicts POSTed to /audit/ingest,
	// rendered by /table/audit and /table/audit-cards. Separate from the
	// measurement pipeline: audit cells are lab verdicts about products,
	// not field measurements, and do not enter the WAL/snapshot plane.
	audits *store.AuditStore
}

func newServer(cfg serverConfig) (*server, error) {
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
	var chaos *faultnet.Controller
	var recovery []durable.Info
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
			Logf: func(format string, args ...any) {
				fmt.Fprintf(cfg.logw, "reportd: "+format+"\n", args...)
			},
		}
		if cfg.chaosSpec != "" {
			plan, err := faultnet.ParseChaosSpec(cfg.chaosSpec)
			if err != nil {
				return nil, fmt.Errorf("reportd: -chaos: %w", err)
			}
			ctrl := faultnet.NewController(plan)
			for _, m := range members {
				host := strings.TrimPrefix(strings.TrimPrefix(m.URL, "http://"), "https://")
				ctrl.Register(m.ID, strings.TrimSuffix(host, "/"))
			}
			ctrl.Start()
			chaos = ctrl
			ccfg.HTTPClient = resilient.SplitTimeoutClient(0, 0, ctrl.DialContext(cfg.clusterID, nil))
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
			Members: node.Members(), HTTPClient: ccfg.HTTPClient, Registry: reg, Logf: ccfg.Logf,
		})
		if err != nil {
			node.Close()
			return nil, err
		}
		sink, shards = route, node.Shards()
	} else {
		var err error
		pipeline, recovery, err = ingest.OpenPipeline(ingest.Config{
			Shards: cfg.shards, BatchSize: cfg.batch, Tracer: tracer, WALDir: cfg.dataDir,
		})
		if err != nil {
			return nil, err
		}
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
		cfg: cfg, pipeline: pipeline, node: node, shards: shards, col: col, recovery: recovery, started: time.Now(),
		reg: reg, tracer: tracer, ring: telemetry.NewEventRing(0), chaos: chaos,
		audits: store.NewAuditStore(),
	}
	s.mountMetrics()
	for i, info := range recovery {
		if info.LastSeq > 0 || info.DroppedTail {
			fmt.Fprintf(cfg.logw, "reportd: shard %d recovered %d measurements (snapshot seq %d, %d replayed)%s\n",
				i, info.LastSeq, info.SnapshotSeq, info.Replayed, recoveryNote(info))
		}
	}
	s.httpSrv = &http.Server{Handler: s.mux()}
	return s, nil
}

func recoveryNote(info durable.Info) string {
	if info.DroppedTail {
		return " [dropped damaged tail: " + info.Reason + "]"
	}
	return ""
}

// commitPending makes every already-POSTed report visible in the shard
// stores. Only the pipeline buffers; a cluster commit is synchronous.
func (s *server) commitPending() {
	if s.pipeline != nil {
		s.pipeline.Drain()
	}
}

// snapshot folds the live shards into one queryable DB. It is
// O(retained records) — export-path only.
func (s *server) snapshot() *store.DB {
	s.commitPending()
	dbs := make([]*store.DB, len(s.shards))
	for i, sh := range s.shards {
		dbs[i] = sh.DB
	}
	return store.Merge(0, dbs...)
}

// totals sums the per-shard aggregates without touching retained
// records, so polling stays cheap at any store size.
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
	s.commitPending()
	tot, countries := s.totals()
	return fmt.Sprintf("store: %d tested, %d proxied (%.2f%%), %d countries",
		tot.Tested, tot.Proxied, 100*tot.Rate(), countries)
}

// mountMetrics registers the server's own numbers next to those its
// storage mount registered (ingest_*, or cluster_*, repl_* and route_*):
// uptime, WAL totals with -data-dir, the observation memo when it is on,
// and the chaos schedule with -chaos.
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
	if c := s.chaos; c != nil {
		reg.GaugeFunc("chaos_phase", "index of the chaos plan's current phase", func() float64 { return float64(c.Phase()) })
		reg.GaugeFunc("chaos_flaps_total", "links whose cut state flipped at a phase change", func() float64 { return float64(c.Flaps()) })
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
// arrives, then shuts down gracefully: stop accepting, commit what is
// pending, checkpoint every WAL into its snapshot, and close the WALs
// (final fsync) — the fix for the old behavior of dying mid-flush and
// forfeiting buffered reports.
func (s *server) serve(sig <-chan os.Signal) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.httpSrv.Serve(s.ln) }()

	var ticker *time.Ticker
	var tick <-chan time.Time
	if s.cfg.snapshotEvery > 0 && s.cfg.dataDir != "" {
		ticker = time.NewTicker(s.cfg.snapshotEvery)
		tick = ticker.C
		defer ticker.Stop()
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
			fmt.Fprintf(s.cfg.logw, "reportd: %v: draining ingest shards and snapshotting...\n", got)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := s.httpSrv.Shutdown(ctx)
			cancel()
			if err != nil {
				// Shutdown timed out with handlers still running (a slow
				// client mid-upload): hard-close the connections. A handler
				// still unwinding can ingest after Close below — that is
				// defined (counted as a WAL error), not a hazard.
				fmt.Fprintf(s.cfg.logw, "reportd: graceful shutdown timed out (%v), closing connections\n", err)
				s.httpSrv.Close()
				err = nil // mitigated; only persistence failures below are fatal
			}
			if s.chaos != nil {
				s.chaos.Stop()
			}
			if s.node != nil {
				// Cluster shutdown: stop followers (final replica sync),
				// fsync and close every WAL. The logs are not compacted:
				// replica followers tail them by sequence number.
				if cerr := s.node.Close(); err == nil {
					err = cerr
				}
			} else {
				// Drain, Checkpoint, Close: the next boot decodes one
				// snapshot per shard and replays nothing.
				s.pipeline.Drain()
				if cerr := s.pipeline.Checkpoint(); err == nil {
					err = cerr
				}
				if cerr := s.pipeline.Close(); err == nil {
					err = cerr
				}
			}
			if got == syscall.SIGTERM {
				// Post-mortem trail for operator-initiated kills.
				s.ring.Dump(s.cfg.logw)
			}
			tot, _ := s.totals()
			fmt.Fprintf(s.cfg.logw, "reportd: shutdown complete (%d tested, %d proxied)\n", tot.Tested, tot.Proxied)
			return err
		}
	}
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
		batch     = fs.Int("batch", ingest.DefaultBatchSize, "measurements buffered per shard before they commit (WAL append + store apply)")
		obsCache  = fs.Int("obs-cache", chaincache.DefaultCap, "observation cache capacity in distinct (host, chain) pairs (0 disables)")
		dataDir   = fs.String("data-dir", "", "durable per-shard WAL + snapshot directory (recovered on boot; graceful shutdown snapshots)")
		snapEvery = fs.Duration("snapshot-every", 0, "checkpoint the WALs on this cadence (e.g. 5m; 0 = only at shutdown; with -data-dir, not in cluster mode)")
		pprofA    = fs.String("pprof", "", "serve net/http/pprof on this address (disabled when empty)")
		selfRef   = fs.String("selfsigned", "", "generate an in-process self-signed authoritative chain for this host (smoke tests / CI; no PEM files needed)")
		clusterID = fs.String("cluster-id", "", "run as this member of a reportd cluster (requires -cluster-peers and -data-dir)")
		clusterPs = fs.String("cluster-peers", "", "full cluster member list as id=url,id=url,... (including this node)")
		chaosSpec = fs.String("chaos", "", "chaos plan for outbound cluster links, e.g. 'seed=7; name=cut, for=10s, cut=a:b' (endpoints are cluster member IDs)")
	)
	fs.Parse(args)

	if *pprofA != "" {
		// pprof registers on http.DefaultServeMux; the report mux is
		// separate, so profiling stays off the public listener.
		go func() {
			fmt.Fprintf(stderr, "reportd: pprof: %v\n", http.ListenAndServe(*pprofA, nil))
		}()
		fmt.Fprintf(stdout, "reportd: pprof on http://%s/debug/pprof/\n", *pprofA)
	}
	refs, err := loadRefs(*selfRef, *host, *refPath, *refDir)
	if err != nil {
		return fatalf("%v", err)
	}
	srv, err := newServer(serverConfig{
		listen:        *listen,
		campaign:      *campaign,
		shards:        *shards,
		batch:         *batch,
		obsCache:      *obsCache,
		dataDir:       *dataDir,
		snapshotEvery: *snapEvery,
		refs:          refs,
		logw:          stdout,
		clusterID:     *clusterID,
		clusterPeers:  *clusterPs,
		chaosSpec:     *chaosSpec,
	})
	if err != nil {
		return fatalf("%v", err)
	}
	// Route structured events through the post-mortem ring; warnings and
	// errors still reach stderr immediately.
	slog.SetDefault(slog.New(telemetry.Tee(
		slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelWarn}), srv.ring)))
	defer telemetry.DumpOnPanic(srv.ring, stderr)
	if err := srv.start(); err != nil {
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
