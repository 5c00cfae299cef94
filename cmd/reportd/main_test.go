package main

// Regression: reportd used to die on SIGTERM with acked reports not yet
// on disk — pre-durability, everything ever collected was forfeited. The
// graceful path must checkpoint the WALs into their snapshots and close
// them, so a recovery over the data directory sees every report the
// server ever accepted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/durable"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/ingest"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/x509util"
)

const testHost = "probe.example"

func testRefs(t *testing.T) ([]hostChain, []byte) {
	t.Helper()
	auth, err := study.BuildAuthoritative([]hostdb.Host{{Name: testHost, Category: hostdb.Popular}}, certgen.DefaultPool)
	if err != nil {
		t.Fatal(err)
	}
	chain := auth.Chains[testHost]
	return []hostChain{{host: testHost, chain: chain}}, x509util.EncodeChainPEM(chain)
}

func startTestServer(t *testing.T, dataDir string, shards int) (*server, chan os.Signal, chan error) {
	t.Helper()
	refs, _ := testRefs(t)
	srv, err := newServer(serverConfig{
		listen:   "127.0.0.1:0",
		campaign: "sigterm-test",
		shards:   shards,
		dataDir:  dataDir,
		refs:     refs,
	}, telemetry.NewEventRing(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.start(); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- srv.serve(sig) }()
	return srv, sig, done
}

func postReports(t *testing.T, addr string, pem []byte, n int) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < n; i++ {
		resp, err := client.Post(
			fmt.Sprintf("http://%s/report?host=%s", addr, testHost),
			"application/x-pem-file", bytes.NewReader(pem))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}
}

// recoverDataDir merges every shard's durable state.
func recoverDataDir(t *testing.T, dir string, shards int) *store.DB {
	t.Helper()
	dbs := make([]*store.DB, 0, shards)
	for i := 0; i < shards; i++ {
		db, _, err := durable.Recover(durable.Options{Dir: durable.ShardDir(dir, i)})
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	return store.Merge(0, dbs...)
}

func TestSIGTERMDrainsAndSnapshots(t *testing.T) {
	const shards, reports = 3, 25
	dir := t.TempDir()
	srv, sig, done := startTestServer(t, dir, shards)
	_, pem := testRefs(t)
	postReports(t, srv.addr(), pem, reports)

	// /metrics must be live and show the durable plane.
	resp, err := http.Get("http://" + srv.addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := metrics["wal_disk_bytes"]; !ok {
		t.Fatalf("/metrics lacks the WAL totals: %v", metrics)
	}

	// Real SIGTERM through the real signal plumbing.
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}

	// Every accepted report survived the process, and the shutdown
	// checkpoint folded each shard's WAL into its snapshot: recovery is a
	// snapshot decode that replays nothing.
	var tested int
	for i := 0; i < shards; i++ {
		db, info, err := durable.Recover(durable.Options{Dir: durable.ShardDir(dir, i)})
		if err != nil {
			t.Fatal(err)
		}
		if info.Replayed != 0 || info.DroppedTail {
			t.Fatalf("shard %d after the shutdown checkpoint: %+v, want nothing to replay", i, info)
		}
		tested += db.Totals().Tested
	}
	if tested != reports {
		t.Fatalf("recovered %d measurements after SIGTERM, want %d", tested, reports)
	}
}

func TestAuditIngestAndTables(t *testing.T) {
	dir := t.TempDir()
	srv, sig, done := startTestServer(t, dir, 1)
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()

	cells := []store.AuditCell{
		{Product: "TestProxy", Defect: "clean", Accepted: true, Validated: true, OfferedVersion: 0x0303},
		{Product: "TestProxy", Defect: "expired", Accepted: true, Validated: true},
		{Product: "TestProxy", Defect: "untrusted-root", Accepted: false, Validated: true},
	}
	body, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post("http://"+srv.addr()+"/audit/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/audit/ingest status %d, want 200", resp.StatusCode)
	}

	// GET on the ingest endpoint must be refused.
	resp, err = client.Get("http://" + srv.addr() + "/audit/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /audit/ingest status %d, want 405", resp.StatusCode)
	}

	// A malformed push must 400 without poisoning the store.
	resp, err = client.Post("http://"+srv.addr()+"/audit/ingest", "application/json",
		bytes.NewReader([]byte(`[{"defect":"clean"}]`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad /audit/ingest status %d, want 400", resp.StatusCode)
	}

	for path, want := range map[string]string{
		"/table/audit-cards": "TestProxy",
		"/table/audit":       "ACCEPT",
	} {
		resp, err := client.Get("http://" + srv.addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		table.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if !bytes.Contains(table.Bytes(), []byte(want)) {
			t.Fatalf("%s = %q, want it to contain %q", path, table.String(), want)
		}
	}

	// The card grade reflects the pushed row: accepts expired only → C.
	resp, err = client.Get("http://" + srv.addr() + "/table/audit-cards")
	if err != nil {
		t.Fatal(err)
	}
	var cards bytes.Buffer
	cards.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(cards.Bytes(), []byte("C")) || !bytes.Contains(cards.Bytes(), []byte("expired")) {
		t.Fatalf("/table/audit-cards = %q, want grade C and accepts expired", cards.String())
	}
}

// unreadRefs registers a host for tests that post no report, so its chain
// is never read and no key material is minted.
var unreadRefs = []hostChain{{host: testHost}}

// TestNewServerRefusesClusterMisconfig: cluster mode refuses flags it
// cannot honour instead of booting without them.
func TestNewServerRefusesClusterMisconfig(t *testing.T) {
	peers := "solo=http://" + reserveAddr(t)
	for _, tc := range []struct {
		name string
		cfg  serverConfig
		want string
	}{
		{"no-data-dir", serverConfig{clusterID: "solo", clusterPeers: peers}, "requires -data-dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.refs = unreadRefs
			srv, err := newServer(tc.cfg, telemetry.NewEventRing(0))
			if err == nil {
				srv.storage.Close()
				t.Fatal("newServer accepted the configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBannerListsModeEndpoints: the startup banner names the mode's own
// endpoints, and the mux serves exactly those.
func TestBannerListsModeEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  serverConfig
		// codes maps paths to the status the mode answers; the banner
		// lists listed and not unlisted.
		codes            map[string]int
		listed, unlisted string
	}{
		{"single-node", serverConfig{},
			map[string]int{"/metrics": http.StatusOK, "/cluster/status": http.StatusNotFound, "/ingest/stats": http.StatusNotFound},
			"/metrics", "/cluster/"},
		{"cluster", serverConfig{clusterID: "solo", clusterPeers: "solo=http://" + reserveAddr(t), dataDir: t.TempDir()},
			map[string]int{"/cluster/status": http.StatusOK, "/ingest/stats": http.StatusNotFound, "/cache/stats": http.StatusNotFound},
			"/cluster/", "/ingest/stats"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.refs = unreadRefs
			srv := bootServer(t, tc.cfg)
			for path, code := range tc.codes {
				rec := httptest.NewRecorder()
				srv.httpSrv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != code {
					t.Errorf("GET %s: status %d, want %d", path, rec.Code, code)
				}
			}
			if banner := srv.endpoints(); !strings.Contains(banner, tc.listed) || strings.Contains(banner, tc.unlisted) {
				t.Errorf("banner %q: want %s listed, %s not", banner, tc.listed, tc.unlisted)
			}
		})
	}
}

// bootServer builds a server that is never started; its handler serves
// requests in-process, and cleanup closes the storage mount.
func bootServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	srv, err := newServer(cfg, telemetry.NewEventRing(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if srv.chaos != nil {
			srv.chaos.Stop()
		}
		srv.storage.Close()
	})
	return srv
}

// TestMetricsOneNamePerNumber: /metrics serves the registry and nothing
// else, so its JSON keys are exactly its Prometheus families, in both
// modes, and the numbers the server itself owns are among them.
func TestMetricsOneNamePerNumber(t *testing.T) {
	wal := []string{"uptime_seconds", "wal_disk_bytes", "wal_fsyncs_total", "wal_appended_frames_total", "wal_segments", "wal_checkpoints_total", "obs_cache_hits_total"}
	for _, tc := range []struct {
		name string
		cfg  serverConfig
		want []string
	}{
		{"single-node", serverConfig{dataDir: t.TempDir()}, slices.Concat(wal, []string{"ingest_ingested_total"})},
		{"cluster", serverConfig{clusterID: "solo", clusterPeers: "solo=http://" + reserveAddr(t), dataDir: t.TempDir(),
			chaosSpec: "seed=7, name=calm; name=healed"}, slices.Concat(wal, []string{"cluster_members_alive", "chaos_phase", "chaos_flaps_total", "faultnet_conns_total"})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.refs = unreadRefs
			tc.cfg.obsCache = 64
			srv := bootServer(t, tc.cfg)
			scrape := func(target string) []byte {
				rec := httptest.NewRecorder()
				srv.httpSrv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d", target, rec.Code)
				}
				return rec.Body.Bytes()
			}
			var doc map[string]any
			if err := json.Unmarshal(scrape("/metrics"), &doc); err != nil {
				t.Fatal(err)
			}
			var families []string
			for _, line := range strings.Split(string(scrape("/metrics?format=prometheus")), "\n") {
				if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
					families = append(families, strings.Fields(name)[0])
				}
			}
			keys := slices.Sorted(maps.Keys(doc))
			slices.Sort(families)
			if !slices.Equal(keys, families) {
				t.Fatalf("JSON keys %v\n!= Prometheus families %v", keys, families)
			}
			for _, name := range tc.want {
				if _, ok := doc[name]; !ok {
					t.Errorf("/metrics lacks %s", name)
				}
			}
		})
	}
}

func TestBootRecoversPreviousProcess(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	srv, sig, done := startTestServer(t, dir, shards)
	_, pem := testRefs(t)
	postReports(t, srv.addr(), pem, 10)
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Second process over the same directory starts with the study
	// intact and keeps counting from there.
	srv2, sig2, done2 := startTestServer(t, dir, shards)
	postReports(t, srv2.addr(), pem, 5)
	resp, err := http.Get("http://" + srv2.addr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats bytes.Buffer
	stats.ReadFrom(resp.Body)
	resp.Body.Close()
	if want := "15 tested"; !bytes.Contains(stats.Bytes(), []byte(want)) {
		t.Fatalf("/stats after restart = %q, want it to contain %q", stats.String(), want)
	}
	sig2 <- syscall.SIGTERM
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	if got := recoverDataDir(t, dir, shards).Totals().Tested; got != 15 {
		t.Fatalf("recovered %d measurements, want 15", got)
	}
}

// lockedBuffer is an io.Writer run writes from its own goroutine while
// the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// liveRun is one in-process run of the command, past its listening
// banner.
type liveRun struct {
	addr           string
	stdout, stderr lockedBuffer
	stop           chan os.Signal
	exit           chan int
}

// startRun runs the command with args and waits for its listening
// banner.
func startRun(t *testing.T, args ...string) *liveRun {
	t.Helper()
	r := &liveRun{stop: make(chan os.Signal, 1), exit: make(chan int, 1)}
	go func() { r.exit <- run(args, &r.stdout, &r.stderr, r.stop) }()
	for deadline := time.Now().Add(30 * time.Second); r.addr == ""; {
		for _, line := range strings.Split(r.stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "reportd: listening on "); ok {
				r.addr = strings.Fields(rest)[0]
			}
		}
		select {
		case code := <-r.exit:
			t.Fatalf("reportd exited %d before listening:\n%s%s", code, r.stdout.String(), r.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening banner:\n%s%s", r.stdout.String(), r.stderr.String())
		}
	}
	return r
}

// sigterm stops the run the way an operator does and wants exit 0 after
// a complete shutdown.
func (r *liveRun) sigterm(t *testing.T) {
	t.Helper()
	r.stop <- syscall.SIGTERM
	select {
	case code := <-r.exit:
		if code != 0 || !strings.Contains(r.stdout.String(), "shutdown complete") {
			t.Fatalf("reportd exited %d after SIGTERM:\n%s%s", code, r.stdout.String(), r.stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("reportd did not exit after SIGTERM")
	}
}

// writeRef writes the test host's authoritative chain to a PEM file for
// -reference.
func writeRef(t *testing.T) (path string, pem []byte) {
	t.Helper()
	_, pem = testRefs(t)
	path = filepath.Join(t.TempDir(), "ref.pem")
	if err := os.WriteFile(path, pem, 0o666); err != nil {
		t.Fatal(err)
	}
	return path, pem
}

// TestRunKeepsStudyAcrossRestart runs the command itself twice over one
// -data-dir: each run exits 0 on its stop signal, and the second serves
// the first one's reports in its /stats totals.
func TestRunKeepsStudyAcrossRestart(t *testing.T) {
	ref, pem := writeRef(t)
	args := []string{"-listen=127.0.0.1:0", "-host=" + testHost, "-reference=" + ref, "-shards=2", "-data-dir=" + t.TempDir()}
	life := func(reports int, want string) {
		t.Helper()
		r := startRun(t, args...)
		postReports(t, r.addr, pem, reports)
		resp, err := http.Get("http://" + r.addr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats bytes.Buffer
		stats.ReadFrom(resp.Body)
		resp.Body.Close()
		if !strings.Contains(stats.String(), want) {
			t.Fatalf("/stats = %q, want it to contain %q", stats.String(), want)
		}
		r.sigterm(t)
	}
	life(7, "7 tested")
	life(3, "10 tested")
}

// TestRunPprof: -pprof names the port it bound and serves /debug/pprof/
// there.
func TestRunPprof(t *testing.T) {
	ref, _ := writeRef(t)
	r := startRun(t, "-listen=127.0.0.1:0", "-host="+testHost, "-reference="+ref, "-pprof=127.0.0.1:0")
	var url string
	for _, line := range strings.Split(r.stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "reportd: pprof on "); ok {
			url = rest
		}
	}
	if url == "" {
		t.Fatalf("no pprof banner:\n%s", r.stdout.String())
	}
	resp, err := http.Get(url + "cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %scmdline: %s", url, resp.Status)
	}
	r.sigterm(t)
}

// TestRunRefusesBadFlags: a value the server cannot honour fails at parse
// with exit 1 and a message naming the flag, before any storage opens.
func TestRunRefusesBadFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards=0"}, "-shards"},
		{[]string{"-shards=-3"}, "-shards"},
		{[]string{"-obs-cache=-1"}, "-obs-cache"},
		{[]string{"-snapshot-every=-1s", "-data-dir=" + dir}, "-snapshot-every"},
		{[]string{"-snapshot-every=5m"}, "-data-dir"},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-listen=127.0.0.1:0", "-host=" + testHost, "-reference=" + filepath.Join(dir, "absent.pem")}, tc.args...)
			if code := run(args, &stdout, &stderr, nil); code != 1 || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("exit %d, stderr %q: want exit 1 naming %s", code, stderr.String(), tc.want)
			}
		})
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("a refused run touched -data-dir: %v %v", entries, err)
	}
}

// TestRunClosesStorageOnBindFailure: a taken -pprof or -listen port
// fails the run after newServer opened the pipeline and its WALs; run
// must close them before it returns 1, leaving no goroutine behind.
func TestRunClosesStorageOnBindFailure(t *testing.T) {
	ref, _ := writeRef(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, flag := range []string{"-pprof", "-listen"} {
		t.Run(flag, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var stdout, stderr bytes.Buffer
			args := []string{"-listen=127.0.0.1:0", "-host=" + testHost, "-reference=" + ref, "-data-dir=" + t.TempDir(),
				flag + "=" + taken.Addr().String()}
			if code := run(args, &stdout, &stderr, nil); code != 1 {
				t.Fatalf("run exited %d with %s taken, want 1:\n%s%s", code, flag, stdout.String(), stderr.String())
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines a second after run returned, %d before it", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// TestRunDumpsShardRecovery: a reboot on a -data-dir files one "shard
// recovered" record per shard it recovered, in both modes, and those
// records reach the shutdown dump — the event ring is installed before
// storage opens.
func TestRunDumpsShardRecovery(t *testing.T) {
	ref, pem := writeRef(t)
	for _, tc := range []struct {
		name string
		args func() []string
		want string
	}{
		{"single-node", func() []string { return []string{"-listen=127.0.0.1:0"} }, "INFO shard recovered (snapshot "},
		{"cluster", func() []string {
			a := reserveAddr(t)
			return []string{"-listen=" + a, "-cluster-id=a", "-cluster-peers=a=http://" + a}
		}, "INFO shard recovered (snapshot "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tc.args(), "-host="+testHost, "-reference="+ref, "-shards=1", "-data-dir="+t.TempDir())
			r := startRun(t, args...)
			postReports(t, r.addr, pem, 3)
			r.sigterm(t)

			r = startRun(t, args...)
			r.sigterm(t)
			_, dump, _ := strings.Cut(r.stdout.String(), "--- telemetry event ring")
			var recovered bool
			for _, line := range strings.Split(dump, "\n") {
				recovered = recovered || strings.Contains(line, tc.want) && strings.Contains(line, " shard=0 seq=")
			}
			if !recovered {
				t.Fatalf("the reboot's dump holds no shard recovery record:\n%s", r.stdout.String())
			}
		})
	}
}

// TestAckedBatchIsAppended: a single-node server appends an
// /ingest/batch request to its shard WALs before it acks, so a read-only
// recovery of the data directory finds the report while the server is
// still running — no shutdown, drain or close in between. Only the WAL's
// syncer stands between the append and the disk.
func TestAckedBatchIsAppended(t *testing.T) {
	const shards = 2
	ref, _ := writeRef(t)
	refs, _ := testRefs(t)
	dir := t.TempDir()
	r := startRun(t, "-listen=127.0.0.1:0", "-host="+testHost, "-reference="+ref,
		fmt.Sprintf("-shards=%d", shards), "-data-dir="+dir)
	defer r.sigterm(t)
	body, err := ingest.AppendReports(nil, []ingest.Report{{Host: testHost, ChainDER: refs[0].chain}})
	if err != nil {
		t.Fatal(err)
	}
	res, status, err := ingest.PostBatch(http.DefaultClient, "http://"+r.addr+"/ingest/batch", body)
	if err != nil || status != http.StatusOK || res.Accepted != 1 {
		t.Fatalf("post: status %d, verdict %+v, err %v", status, res, err)
	}
	for deadline := time.Now().Add(time.Second); recoverDataDir(t, dir, shards).Totals().Tested != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the acked report is not in the WAL a second after its ack")
		}
	}
}

// TestFailedCheckpointIsAWarning: a checkpoint that refuses a damaged
// segment is filed through slog as a warning naming the shard, so it
// reaches the event ring and stderr, and the shutdown that ran it fails.
func TestFailedCheckpointIsAWarning(t *testing.T) {
	const shards = 2
	ring := telemetry.NewEventRing(0)
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(ring))
	t.Cleanup(func() {
		slog.SetDefault(prev) // which alone leaves the log package writing into ring
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	srv, sig, done := startTestServer(t, t.TempDir(), shards)
	_, pem := testRefs(t)
	postReports(t, srv.addr(), pem, 5)

	// Seal the reports' segment, then rot one byte of its last frame: the
	// checkpoint must refuse to fold it away.
	si := durable.ShardOf(testHost, shards)
	wal := srv.shards[si].Log
	seg := newestSegment(t, durable.ShardDir(srv.cfg.dataDir, si))
	if err := wal.Rotate(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(seg, b, 0o666); err != nil {
		t.Fatal(err)
	}

	sig <- syscall.SIGTERM
	if err := <-done; err == nil {
		t.Fatal("shutdown over a damaged sealed segment reported no error")
	}
	want := fmt.Sprintf(" WARN checkpoint failed shard=%d err=", si)
	for _, line := range ring.Events() {
		if strings.Contains(line, want) {
			return
		}
	}
	t.Fatalf("the ring holds no %q record:\n%s", want, strings.Join(ring.Events(), "\n"))
}

// newestSegment is the path of the last WAL segment in a shard directory.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", dir, err)
	}
	return segs[len(segs)-1]
}
