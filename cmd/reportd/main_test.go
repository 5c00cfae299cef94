package main

// Regression: reportd used to die on SIGTERM with reports still sitting
// in the ingest pipeline's pending batches — everything not yet flushed
// (and, pre-durability, everything ever collected) was forfeited. The
// graceful path must drain every shard, fsync the WALs, and write final
// snapshots, so a recovery over the data directory sees every report the
// server ever accepted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/durable"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
	"tlsfof/internal/x509util"
)

const testHost = "probe.example"

func testRefs(t *testing.T) ([]hostChain, []byte) {
	t.Helper()
	pool := certgen.NewKeyPool(2, nil)
	auth, err := study.BuildAuthoritative([]hostdb.Host{{Name: testHost, Category: hostdb.Popular}}, pool)
	if err != nil {
		t.Fatal(err)
	}
	chain := auth.Chains[testHost]
	return []hostChain{{host: testHost, chain: chain}}, x509util.EncodeChainPEM(chain)
}

func startTestServer(t *testing.T, dataDir string, shards, batch int) (*server, chan os.Signal, chan error) {
	t.Helper()
	refs, _ := testRefs(t)
	srv, err := newServer(serverConfig{
		listen:   "127.0.0.1:0",
		campaign: "sigterm-test",
		shards:   shards,
		batch:    batch,
		dataDir:  dataDir,
		refs:     refs,
	})
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
		db, _, err := durable.Recover(durable.Options{Dir: filepath.Join(dir, fmt.Sprintf("shard-%03d", i))})
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
	// Batch size far above the report count: every report sits in a
	// pending buffer, never auto-flushed — exactly the mid-flush state
	// the old server forfeited on SIGTERM.
	srv, sig, done := startTestServer(t, dir, shards, 512)
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

	// Every accepted report survived the process.
	db := recoverDataDir(t, dir, shards)
	if got := db.Totals().Tested; got != reports {
		t.Fatalf("recovered %d measurements after SIGTERM, want %d", got, reports)
	}
	// The shutdown snapshot collapsed each shard dir (no WAL segments
	// left behind, recovery is a snapshot decode).
	for i := 0; i < shards; i++ {
		entries, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".log" {
				t.Fatalf("shard %d still has WAL segment %s after shutdown snapshot", i, e.Name())
			}
		}
	}
}

func TestAuditIngestAndTables(t *testing.T) {
	dir := t.TempDir()
	srv, sig, done := startTestServer(t, dir, 1, 1)
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
		{"snapshot-every", serverConfig{clusterID: "solo", clusterPeers: peers, dataDir: t.TempDir(), snapshotEvery: time.Minute}, "-snapshot-every"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.refs = unreadRefs
			srv, err := newServer(tc.cfg)
			if err == nil {
				srv.node.Close()
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
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if srv.chaos != nil {
			srv.chaos.Stop()
		}
		if srv.node != nil {
			srv.node.Close()
		} else {
			srv.pipeline.Close()
		}
	})
	return srv
}

// TestMetricsOneNamePerNumber: /metrics serves the registry and nothing
// else, so its JSON keys are exactly its Prometheus families, in both
// modes, and the numbers the server itself owns are among them.
func TestMetricsOneNamePerNumber(t *testing.T) {
	wal := []string{"uptime_seconds", "wal_disk_bytes", "wal_fsyncs_total", "wal_appended_frames_total", "wal_segments", "obs_cache_hits_total"}
	for _, tc := range []struct {
		name string
		cfg  serverConfig
		want []string
	}{
		{"single-node", serverConfig{dataDir: t.TempDir()}, slices.Concat(wal, []string{"ingest_enqueued_total"})},
		{"cluster", serverConfig{clusterID: "solo", clusterPeers: "solo=http://" + reserveAddr(t), dataDir: t.TempDir(),
			chaosSpec: "seed=7, name=calm; name=healed"}, slices.Concat(wal, []string{"cluster_members_alive", "chaos_phase", "chaos_flaps_total"})},
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
	srv, sig, done := startTestServer(t, dir, shards, 512)
	_, pem := testRefs(t)
	postReports(t, srv.addr(), pem, 10)
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Second process over the same directory starts with the study
	// intact and keeps counting from there.
	srv2, sig2, done2 := startTestServer(t, dir, shards, 1)
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
