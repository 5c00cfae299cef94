package fleet

import (
	"bytes"
	"encoding/json"
	"log"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/cluster"
	"tlsfof/internal/resilient"
	"tlsfof/internal/telemetry"
)

// testNode is one cluster.Node behind a real TCP listener, mounted the
// way cmd/reportd mounts it: its handler and /metrics.
type testNode struct {
	node *cluster.Node
	srv  *http.Server
}

func startNodes(t *testing.T, ids ...string) (map[string]*testNode, []cluster.Member) {
	t.Helper()
	var members []cluster.Member
	listeners := make(map[string]net.Listener)
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		members = append(members, cluster.Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	nodes := make(map[string]*testNode)
	for _, id := range ids {
		reg := telemetry.NewRegistry()
		n, err := cluster.Open(cluster.Config{
			ID: id, Members: members, DataDir: filepath.Join(t.TempDir(), id),
			Shards: 2, SegmentBytes: 4 << 10, AckTimeout: 5 * time.Second,
			PollInterval: 2 * time.Millisecond, LongPoll: 20 * time.Millisecond, Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		mux := http.NewServeMux()
		mux.Handle("/", n.Handler())
		mux.Handle("/metrics", telemetry.Handler(reg))
		srv := &http.Server{Handler: mux}
		go srv.Serve(listeners[id])
		nodes[id] = &testNode{node: n, srv: srv}
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.srv.Close()
			tn.node.Close()
		}
	})
	return nodes, members
}

// TestDeathReachesDrainingReplicaHolder: the node holding b's replica is
// draining when b dies. Only a node that hears of the death seals its
// follower of b and serves the replica, so the death mark must reach a
// draining peer too — skip it and the merge finds no survivor holding b.
func TestDeathReachesDrainingReplicaHolder(t *testing.T) {
	nodes, members := startNodes(t, "a", "b", "c")
	o := newOrchestrator(t, members)
	o.HTTP = resilient.SplitTimeoutClient(2*time.Second, 5*time.Second, nil)
	holder, ok := o.Members.ReplicaTarget("b")
	if !ok {
		t.Fatal("no replica target for b")
	}
	if err := o.Drain(holder.ID); err != nil {
		t.Fatal(err)
	}

	view, err := cluster.NewMembership(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cluster.NewRouteClient(cluster.RouteConfig{Members: view, BatchSize: 32, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ms := measurements(600, 23)
	for i, m := range ms {
		if i == len(ms)/2 {
			nodes["b"].node.Kill()
			nodes["b"].srv.Close()
			for round := 1; ; round++ {
				o.HealthRound()
				if b, _ := o.Members.Get("b"); b.State == cluster.Dead {
					break
				}
				if round == 10 {
					t.Fatalf("b not dead after %d health rounds against a closed listener", round)
				}
			}
		}
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}

	db, err := o.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon(db), canon(storeOf(ms))) {
		t.Fatalf("merge with b's replica from draining %s differs from the control", holder.ID)
	}
}

// TestNodeDeathExplainedByRing: a node death is explainable from a
// survivor's /metrics plus one ring entry. Health rounds declare a killed
// b dead; the survivors' dead marks go through slog into the event ring
// as warnings naming b and the membership epoch, and a survivor's
// cluster_members_alive reads 2.
func TestNodeDeathExplainedByRing(t *testing.T) {
	ring := captureEvents(t)
	nodes, members := startNodes(t, "a", "b", "c")
	o := newOrchestrator(t, members)
	o.HTTP = resilient.SplitTimeoutClient(2*time.Second, 5*time.Second, nil)
	nodes["b"].node.Kill()
	nodes["b"].srv.Close()
	for round := 1; ; round++ {
		o.HealthRound()
		if b, _ := o.Members.Get("b"); b.State == cluster.Dead {
			break
		}
		if round == 10 {
			t.Fatalf("b not dead after %d health rounds against a closed listener", round)
		}
	}

	marked := false
	for _, line := range ring.Events() {
		marked = marked || strings.Contains(line, " WARN ") && strings.Contains(line, " peer=b ") && strings.Contains(line, " epoch=")
	}
	if !marked {
		t.Fatalf("no warning naming peer b and an epoch in the ring:\n%s", strings.Join(ring.Events(), "\n"))
	}
	resp, err := http.Get(members[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics["cluster_members_alive"]; got != 2 {
		t.Fatalf("survivor a reads cluster_members_alive %v, want 2", got)
	}
}

// captureEvents installs a fresh event ring as the default slog logger
// until the test ends.
func captureEvents(t testing.TB) *telemetry.EventRing {
	ring := telemetry.NewEventRing(0)
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(ring))
	t.Cleanup(func() {
		slog.SetDefault(prev) // which alone leaves the log package writing into ring
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return ring
}
