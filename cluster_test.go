package tlsfof

// Cluster-grade battery for the distributed measurement plane: a full
// seeded study streamed through a 3-node in-process reportd cluster over
// real HTTP, one node SIGKILLed mid-flight, the fleet re-routed by the
// orchestrator broadcast protocol, the dead node's shards recovered from
// a survivor's replicated WAL — and the final cross-node merge must
// reproduce the sequential control byte-for-byte, down to the golden
// paper tables. This is the tier-1 gate for internal/cluster: routing,
// semi-synchronous replication, membership, and merge determinism all
// fail here if any one of them drifts.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/fleet"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
	"tlsfof/internal/telemetry"
)

// clusterHarness is three (or N) cluster.Node instances behind real TCP
// listeners — the runtime exactly as cmd/reportd mounts it.
type clusterHarness struct {
	t          *testing.T
	members    []cluster.Member
	nodes      map[string]*cluster.Node
	servers    map[string]*http.Server
	registries map[string]*telemetry.Registry
}

// startClusterHarness starts the cluster with a per-node Config hook:
// configure (optional) runs before each cluster.Open with the full member
// list resolved, so tests can mount chaos-controlled HTTP clients or
// tighten replication deadlines on individual nodes.
func startClusterHarness(t *testing.T, ids []string, configure func(id string, members []cluster.Member, cfg *cluster.Config)) *clusterHarness {
	t.Helper()
	h := &clusterHarness{
		t:          t,
		nodes:      make(map[string]*cluster.Node),
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
		h.members = append(h.members, cluster.Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	for _, id := range ids {
		reg := telemetry.NewRegistry()
		cfg := cluster.Config{
			ID:           id,
			Members:      h.members,
			DataDir:      filepath.Join(t.TempDir(), id),
			Shards:       2,
			SegmentBytes: 32 << 10,
			AckTimeout:   5 * time.Second,
			PollInterval: 2 * time.Millisecond,
			LongPoll:     20 * time.Millisecond,
			Registry:     reg,
			Logf:         t.Logf,
		}
		if configure != nil {
			configure(id, h.members, &cfg)
		}
		n, err := cluster.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		srv := &http.Server{Handler: n.Handler()}
		go srv.Serve(listeners[id])
		h.nodes[id] = n
		h.servers[id] = srv
		h.registries[id] = reg
	}
	t.Cleanup(func() {
		for _, srv := range h.servers {
			srv.Close()
		}
		for _, n := range h.nodes {
			n.Close()
		}
	})
	return h
}

// orchestrator returns the fleet library's orchestrator over its own
// view of the members, the way fleetctl builds one; dial nil dials
// directly.
func (h *clusterHarness) orchestrator(dial resilient.DialFunc, health cluster.SuspicionConfig) *fleet.Orchestrator {
	h.t.Helper()
	view, err := cluster.NewMembership(h.members, 0)
	if err != nil {
		h.t.Fatal(err)
	}
	return &fleet.Orchestrator{
		Members: view,
		HTTP:    resilient.SplitTimeoutClient(2*time.Second, 5*time.Second, dial),
		Scorer:  cluster.NewScorer(health),
		Logf:    h.t.Logf,
	}
}

func ackTimeouts(t *testing.T, reg *telemetry.Registry) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == "repl_ack_timeouts_total" {
			return m.Value
		}
	}
	t.Fatal("repl_ack_timeouts_total not registered")
	return 0
}

// canonBytes is the canonical comparison form: store.Merge sorts every
// record stream, so two stores assembled from different partitions of
// the same measurements serialize identically.
func canonBytes(dbs ...*store.DB) []byte {
	return store.Merge(0, dbs...).AppendSnapshot(nil)
}

// TestClusterKillOneNode runs the golden seeded study against a 3-node
// cluster, kills one node a third of the way through the measurement
// stream, and requires the surviving fleet to finish the study with
// nothing lost and nothing double-counted: the cross-node merge
// (survivors' own shards + the dead node's shards recovered from a
// survivor's replica WALs, all over HTTP) must match the sequential
// control and the checked-in golden tables byte-for-byte. The dead
// node's own data directory is never read.
func TestClusterKillOneNode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster kill battery runs two full studies; CI runs it by name")
	}
	// Sequential control first: it fixes the total measurement count and
	// the canonical store the cluster must reproduce.
	seq, err := study.Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := int(seq.Store.Totals().Tested)
	if total < 30 {
		t.Fatalf("control study produced only %d measurements; too small to kill mid-flight", total)
	}
	killAt := total / 3

	h := startClusterHarness(t, []string{"a", "b", "c"}, nil)
	orch := h.orchestrator(nil, cluster.SuspicionConfig{})
	view, err := cluster.NewMembership(h.members, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cluster.NewRouteClient(cluster.RouteConfig{
		Members: view, BatchSize: 64, RetryDelay: time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The tee counts the stream and pulls the trigger at killAt: node b
	// dies (WALs abandoned unsynced, listener closed), and the
	// orchestrator's health rounds — the path fleetctl's health loop
	// takes — find the death in three hard failures against the closed
	// listener and broadcast it to both survivors. The route client is
	// NOT told: it must discover the death through transport failure and
	// re-route on its own. All of this happens synchronously between two
	// measurements, so the surviving nodes never ingest inside the window
	// where their replica peer is dead but not yet marked — which is what
	// the zero-degraded-acks assertion below pins.
	streamed, killed := 0, false
	tee := core.SinkFunc(func(m core.Measurement) {
		streamed++
		if streamed == killAt && !killed {
			killed = true
			h.nodes["b"].Kill()
			h.servers["b"].Close()
			for round := 1; round <= 3; round++ {
				orch.HealthRound()
			}
			if b, _ := orch.Members.Get("b"); b.State != cluster.Dead {
				t.Fatalf("three health rounds against b's closed listener left it %v (verdict %v)", b.State, orch.Scorer.Verdict("b"))
			}
		}
		rc.Ingest(m)
	})

	cfg := goldenConfig()
	cfg.Sink = tee
	res, err := study.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatalf("streamed %d measurements without reaching the kill point %d", streamed, killAt)
	}
	if streamed != total {
		t.Fatalf("cluster run streamed %d measurements, control tested %d", streamed, total)
	}

	st := rc.Stats()
	if st.Lost != 0 || rc.Err() != nil {
		t.Fatalf("route stats %+v (err %v): measurements lost in the kill", st, rc.Err())
	}
	if int(st.Delivered) != total {
		t.Fatalf("delivered %d of %d measurements", st.Delivered, total)
	}
	// The client must have healed around the killed node one way or the
	// other: either a survivor relayed the stranded batch and its owner
	// verdict folded b's shards away (the self-healing path — possible
	// here because the death broadcast reaches the survivors first), or
	// every relay failed too and the client declared b dead itself.
	if st.DeadMarked == 0 && st.Relayed == 0 {
		t.Fatalf("route stats %+v, client never routed around the killed node", st)
	}
	if st.DeadMarked > 1 {
		t.Fatalf("route stats %+v, want at most one dead-marking (node b)", st)
	}
	for _, id := range []string{"a", "c"} {
		if v := ackTimeouts(t, h.registries[id]); v != 0 {
			t.Fatalf("survivor %s logged %v degraded acks; the dead-broadcast protocol leaked a window", id, v)
		}
	}

	// Exactly one survivor holds b's replica streams: both claiming it
	// would double-count b's shards in any merge.
	var recovered *store.DB
	for _, id := range []string{"a", "c"} {
		db, err := h.nodes[id].RecoverReplica("b")
		if err != nil {
			continue
		}
		if recovered != nil {
			t.Fatal("both survivors claim b's replica; shards would be double-counted")
		}
		recovered = db
	}
	if recovered == nil {
		t.Fatal("no survivor could recover b's replica")
	}
	if recovered.Totals().Tested == 0 {
		t.Fatal("b died a third of the way in, but its recovered replica is empty")
	}

	// The orchestrator's merge: survivors' own shards over HTTP, b's from
	// whichever survivor holds its replica. b's data directory stays
	// untouched — recovery must work from replicas alone.
	merged, err := orch.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonBytes(merged), canonBytes(seq.Store); !bytes.Equal(got, want) {
		t.Fatalf("cluster merge differs from sequential control (%d vs %d bytes)", len(got), len(want))
	}

	// And the end product: the paper tables rendered from the merged
	// store must equal the checked-in golden fixtures byte-for-byte.
	final := *res
	final.Store = merged
	checkAgainstGolden(t, goldenDir(t), goldenArtifacts(t, &final))
}

// TestClusterPartitionGolden pins cross-node merge determinism without
// any failure in the mix: the golden study partitioned across N in-memory
// nodes by the production ring, merged, must render the golden tables for
// every N. N=1 additionally pins that Merge of a single store is an
// identity at the table level.
func TestClusterPartitionGolden(t *testing.T) {
	dir := goldenDir(t)
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			ids := make([]string, nodes)
			dbs := make(map[string]*store.DB, nodes)
			for i := range ids {
				ids[i] = fmt.Sprintf("n%d", i)
				dbs[ids[i]] = store.New(0)
			}
			ring := cluster.NewRing(ids, 0)
			cfg := goldenConfig()
			cfg.Sink = core.SinkFunc(func(m core.Measurement) {
				id, ok := ring.Owner(m.Host)
				if !ok {
					t.Errorf("ring owns nothing for host %q", m.Host)
					return
				}
				dbs[id].Ingest(m)
			})
			res, err := study.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if nodes > 1 {
				populated := 0
				for _, db := range dbs {
					if db.Totals().Tested > 0 {
						populated++
					}
				}
				if populated < 2 {
					t.Fatalf("only %d of %d nodes received measurements; the partition test is vacuous", populated, nodes)
				}
			}
			parts := make([]*store.DB, 0, nodes)
			for _, id := range ids {
				parts = append(parts, dbs[id])
			}
			final := *res
			final.Store = store.Merge(0, parts...)
			checkAgainstGolden(t, dir, goldenArtifacts(t, &final))
		})
	}
}
