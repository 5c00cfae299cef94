package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// testCluster is an in-process cluster over real TCP listeners — the
// node runtime exactly as reportd mounts it, minus the process
// boundary.
type testCluster struct {
	t          testing.TB
	members    []Member
	nodes      map[string]*Node
	servers    map[string]*http.Server
	registries map[string]*telemetry.Registry
}

func startTestCluster(t testing.TB, ids []string, tweak func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:          t,
		nodes:      make(map[string]*Node),
		servers:    make(map[string]*http.Server),
		registries: make(map[string]*telemetry.Registry),
	}
	listeners := make(map[string]net.Listener)
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		tc.members = append(tc.members, Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	for _, id := range ids {
		reg := telemetry.NewRegistry()
		cfg := Config{
			ID:           id,
			Members:      tc.members,
			DataDir:      filepath.Join(t.TempDir(), id),
			Shards:       2,
			SegmentBytes: 4 << 10,
			AckTimeout:   5 * time.Second,
			PollInterval: 2 * time.Millisecond,
			LongPoll:     20 * time.Millisecond,
			Registry:     reg,
			Logf:         t.Logf,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		n, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		srv := &http.Server{Handler: n.Handler()}
		go srv.Serve(listeners[id])
		tc.nodes[id] = n
		tc.servers[id] = srv
		tc.registries[id] = reg
	}
	t.Cleanup(func() {
		for _, srv := range tc.servers {
			srv.Close()
		}
		for _, n := range tc.nodes {
			n.Close()
		}
	})
	return tc
}

func (tc *testCluster) url(id string) string {
	for _, m := range tc.members {
		if m.ID == id {
			return m.URL
		}
	}
	tc.t.Fatalf("no member %q", id)
	return ""
}

func (tc *testCluster) route(batch int) *RouteClient {
	tc.t.Helper()
	view, err := NewMembership(tc.members, 0)
	if err != nil {
		tc.t.Fatal(err)
	}
	rc, err := NewRouteClient(RouteConfig{Members: view, BatchSize: batch, RetryDelay: time.Millisecond, Logf: tc.t.Logf})
	if err != nil {
		tc.t.Fatal(err)
	}
	return rc
}

func (tc *testCluster) post(id, path string) {
	tc.t.Helper()
	resp, err := http.Post(tc.url(id)+path, "", nil)
	if err != nil {
		tc.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("POST %s to %s: HTTP %d", path, id, resp.StatusCode)
	}
}

func (tc *testCluster) get(id, path string) ([]byte, int) {
	tc.t.Helper()
	resp, err := http.Get(tc.url(id) + path)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	return body, resp.StatusCode
}

func metricValue(t testing.TB, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestClusterReplicationAndRecovery is the two-node core of the kill
// battery: every acked batch must be durable on the replica before its
// ack, so killing the primary and rebuilding it from the survivor's
// replica WALs reproduces its tables byte-identically.
func TestClusterReplicationAndRecovery(t *testing.T) {
	tc := startTestCluster(t, []string{"a", "b"}, nil)
	a, b := tc.nodes["a"], tc.nodes["b"]

	ms := testMeasurements(400, 7)
	rc := tc.route(32)
	for _, m := range ms {
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Delivered != 400 || st.Lost != 0 {
		t.Fatalf("route stats %+v, want 400 delivered, 0 lost", st)
	}
	if metricValue(t, tc.registries["b"], "repl_frames_applied_total") == 0 {
		t.Fatal("b applied no replica frames while a ingested")
	}
	if metricValue(t, tc.registries["a"], "repl_ack_timeouts_total") != 0 {
		t.Fatal("healthy cluster acked in degraded mode")
	}

	// The state a's tables hold the instant it dies.
	aTables := a.MergeLocal().AppendSnapshot(nil)

	a.Kill()
	tc.post("b", "/cluster/dead?node=a")
	if _, status := tc.get("a", "/cluster/status"); status != http.StatusServiceUnavailable {
		t.Fatalf("killed node answered HTTP %d", status)
	}
	if err := a.IngestBatch(ms[:1]); err != ErrNodeKilled {
		t.Fatalf("killed node ingest returned %v", err)
	}

	// The survivor rebuilds a's shards from its replica WALs over HTTP.
	body, status := tc.get("b", "/cluster/replica?node=a")
	if status != http.StatusOK {
		t.Fatalf("replica recovery: HTTP %d: %s", status, body)
	}
	if !bytes.Equal(body, aTables) {
		t.Fatalf("recovered replica differs from a's own tables (%d vs %d bytes)", len(body), len(aTables))
	}
	recovered, err := store.DecodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Totals().Tested == 0 {
		t.Fatal("replica recovery produced an empty store")
	}

	// Cross-node merge == sequential control, byte for byte.
	control := store.New(0)
	for _, m := range ms {
		control.Ingest(m)
	}
	got := canonSnapshot(b.MergeLocal(), recovered)
	want := canonSnapshot(control)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster merge differs from sequential control (%d vs %d bytes)", len(got), len(want))
	}
}

// TestClusterDrainReroutes: a draining node refuses new writes with a
// not-owner verdict; the router folds the verdict into its view and the
// full stream still lands exactly once.
func TestClusterDrainReroutes(t *testing.T) {
	tc := startTestCluster(t, []string{"a", "b"}, nil)
	a, b := tc.nodes["a"], tc.nodes["b"]

	ms := testMeasurements(200, 11)
	rc := tc.route(16)
	for _, m := range ms[:100] {
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}

	tc.post("a", "/cluster/drain")
	// The orchestrator broadcasts the drain; without it, b's stale ring
	// bounces a's former hosts straight back at a.
	tc.post("b", "/cluster/draining?node=a")
	var status Status
	body, _ := tc.get("a", "/cluster/status")
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.State != "draining" {
		t.Fatalf("a reports state %q after drain", status.State)
	}

	for _, m := range ms[100:] {
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Delivered != 200 || st.Lost != 0 {
		t.Fatalf("route stats %+v, want 200 delivered, 0 lost", st)
	}
	if st.NotOwnerRetries == 0 {
		t.Fatal("drain produced no not-owner verdicts; the reroute path went untested")
	}
	if metricValue(t, tc.registries["a"], "cluster_ingest_not_owner_total") == 0 {
		t.Fatal("a's not-owner counter stayed at zero through its drain")
	}

	control := store.New(0)
	for _, m := range ms {
		control.Ingest(m)
	}
	got := canonSnapshot(a.MergeLocal(), b.MergeLocal())
	if !bytes.Equal(got, canonSnapshot(control)) {
		t.Fatal("drained cluster merge differs from sequential control")
	}
}

// TestClusterTransportDeathReroutes: when a node stops answering
// entirely, the router marks it dead and re-splits; nothing is lost and
// nothing is double-counted, because an undelivered batch never touched
// the dead node's WAL.
func TestClusterTransportDeathReroutes(t *testing.T) {
	tc := startTestCluster(t, []string{"a", "b"}, nil)
	b := tc.nodes["b"]

	ms := testMeasurements(200, 13)
	rc := tc.route(16)
	for _, m := range ms[:100] {
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}

	// a vanishes at the TCP level; the orchestrator tells b.
	tc.servers["a"].Close()
	b.Members().MarkDead("a")

	for _, m := range ms[100:] {
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Delivered != 200 || st.Lost != 0 {
		t.Fatalf("route stats %+v, want 200 delivered, 0 lost", st)
	}
	if st.DeadMarked != 1 {
		t.Fatalf("route stats %+v, want exactly one dead-marking", st)
	}

	// The survivor's own data plus its replica of a covers everything.
	rec, err := b.RecoverReplica("a")
	if err != nil {
		t.Fatal(err)
	}
	control := store.New(0)
	for _, m := range ms {
		control.Ingest(m)
	}
	got := canonSnapshot(b.MergeLocal(), rec)
	if !bytes.Equal(got, canonSnapshot(control)) {
		t.Fatal("post-death cluster merge differs from sequential control")
	}
}

// TestClusterDegradedAck: with no follower running, the ack wait times
// out and ingest proceeds in degraded mode — counted, never deadlocked.
func TestClusterDegradedAck(t *testing.T) {
	reg := telemetry.NewRegistry()
	members := []Member{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: "http://127.0.0.1:2"}}
	n, err := Open(Config{
		ID: "a", Members: members, DataDir: t.TempDir(),
		Shards: 2, AckTimeout: 20 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// b exists and is alive in the view, but nothing tails a's WAL.
	start := time.Now()
	if err := n.IngestBatch(testMeasurements(8, 17)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("ingest returned in %v; the ack wait never happened", elapsed)
	}
	if metricValue(t, reg, "repl_ack_timeouts_total") == 0 {
		t.Fatal("degraded ack left no trace in the timeout counter")
	}
	if lag := metricValue(t, reg, "repl_lag_frames"); lag == 0 {
		t.Fatal("replication lag gauge reads zero with an absent follower")
	}
}

// TestClusterRestartRecovers: a cleanly closed node reopens from its own
// WALs with identical tables, and the pinned manifest refuses a shard
// count change.
func TestClusterRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	members := []Member{{ID: "solo", URL: "http://127.0.0.1:1"}}
	open := func(shards int) (*Node, error) {
		return Open(Config{ID: "solo", Members: members, DataDir: dir, Shards: shards, SegmentBytes: 4 << 10})
	}
	n, err := open(2)
	if err != nil {
		t.Fatal(err)
	}
	ms := testMeasurements(150, 19)
	if err := n.IngestBatch(ms); err != nil {
		t.Fatal(err)
	}
	want := n.MergeLocal().AppendSnapshot(nil)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := open(4); err == nil {
		t.Fatal("shard-count change slipped past the pinned manifest")
	}
	n2, err := open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.MergeLocal().AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Fatal("restarted node's tables differ from the pre-restart tables")
	}
}

// TestClusterStatusDocument sanity-checks the manifest fleetctl routes
// against.
func TestClusterStatusDocument(t *testing.T) {
	tc := startTestCluster(t, []string{"a", "b", "c"}, nil)
	body, status := tc.get("b", "/cluster/status")
	if status != http.StatusOK {
		t.Fatalf("status endpoint: HTTP %d", status)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "b" || st.Shards != 2 || len(st.Members) != 3 {
		t.Fatalf("status document %+v", st)
	}
	// Successor placement is not a permutation — one node may hold two
	// replicas and another zero — but cluster-wide every node's WAL is
	// tailed: nodes × shards streams in total, none self-directed.
	streams := 0
	for _, id := range []string{"a", "b", "c"} {
		doc, _ := tc.get(id, "/cluster/status")
		var s Status
		if err := json.Unmarshal(doc, &s); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Replicas {
			if r.Source == id {
				t.Fatalf("%s reports following itself: %+v", id, r)
			}
			streams++
		}
	}
	if want := 3 * st.Shards; streams != want {
		t.Fatalf("cluster reports %d replica streams, want %d", streams, want)
	}
	_ = fmt.Sprintf("%v", st) // Status must remain printable for fleetctl logs
}
