package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
)

// TestRunMergesDeadNodeFromReplica boots three in-process nodes, streams
// a measurement set through them, kills b, and runs the command the way
// the cluster runbook does: `-nodes … -dead b -out F`. fleetctl's own
// death broadcast must let a survivor serve b's replica, F must hold the
// control's totals, and the ring dump on stderr must say where b's
// shards came from.
func TestRunMergesDeadNodeFromReplica(t *testing.T) {
	var members []cluster.Member
	listeners := make(map[string]net.Listener)
	for _, id := range []string{"a", "b", "c"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		members = append(members, cluster.Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	nodes := make(map[string]*cluster.Node)
	servers := make(map[string]*http.Server)
	for _, m := range members {
		n, err := cluster.Open(cluster.Config{
			ID: m.ID, Members: members, DataDir: filepath.Join(t.TempDir(), m.ID),
			AckTimeout: 5 * time.Second, PollInterval: 2 * time.Millisecond, LongPoll: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		servers[m.ID] = &http.Server{Handler: n.Handler()}
		go servers[m.ID].Serve(listeners[m.ID])
		nodes[m.ID] = n
	}
	t.Cleanup(func() {
		for id, n := range nodes {
			servers[id].Close()
			n.Close()
		}
	})

	view, err := cluster.NewMembership(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cluster.NewRouteClient(cluster.RouteConfig{Members: view, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	control := store.New(0)
	r := stats.NewRNG(9)
	for i := 0; i < 500; i++ {
		m := core.Measurement{
			Time:         time.Date(2014, time.October, 8, 16, i, 0, 0, time.UTC),
			ClientIP:     uint32(r.Uint64()>>16) | 1,
			Country:      []string{"US", "BR", "DE"}[r.Intn(3)],
			Host:         fmt.Sprintf("host-%02d.example", r.Intn(24)),
			HostCategory: hostdb.Popular,
			Campaign:     "broad",
		}
		if r.Bool(0.3) {
			m.Obs = core.Observation{Proxied: true, IssuerOrg: "Fortinet", IssuerCN: "FortiGate CA",
				ProductName: "FortiGate", KeyBits: 1024, WeakKey: true, ChainLen: 2, Category: classify.Category(r.Intn(5))}
		}
		control.Ingest(m)
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if nodes["b"].MergeLocal().Totals().Tested == 0 {
		t.Fatal("b owns nothing; killing it would test no replica")
	}
	nodes["b"].Kill()
	servers["b"].Close()

	var spec []string
	for _, m := range members {
		spec = append(spec, m.ID+"="+m.URL)
	}
	out := filepath.Join(t.TempDir(), "merged.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nodes", strings.Join(spec, ","), "-dead", "b", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("fleetctl exited %d:\n%s%s", code, stdout.Bytes(), stderr.Bytes())
	}
	tables, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	tot := control.Totals()
	want := fmt.Sprintf("merged: %d tested, %d proxied (", tot.Tested, tot.Proxied)
	if line, _, _ := strings.Cut(string(tables), "\n"); !strings.HasPrefix(line, want) {
		t.Fatalf("tables start %q, want %q…\nfleetctl said:\n%s", line, want, stdout.Bytes())
	}
	// The merge's events reach the event ring, which fleetctl dumps to
	// stderr when the run ends.
	recovered := false
	for _, line := range strings.Split(stderr.String(), "\n") {
		recovered = recovered || strings.Contains(line, "recovered from replica") && strings.Contains(line, " node=b ")
	}
	if !recovered {
		t.Fatalf("merge never recovered b from a replica:\n%s", stderr.Bytes())
	}
}
