package main

// Cluster-mode acceptance: study 2 probes 18 hosts at once, so every
// upload a node receives mixes hosts owned all over the ring. Reports may
// land on any node, in the wire format or as PEM, while a node drains —
// and the cluster's merged stores must still hold each one exactly once.

import (
	"bytes"
	"crypto/x509/pkix"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/fleet"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/ingest"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
	"tlsfof/internal/x509util"
)

// reserveAddr picks a free loopback port. Cluster members must know each
// other's URLs before any of them boots, so ":0" at listen time is no use.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func TestClusterModeMixedHostReports(t *testing.T) {
	if testing.Short() {
		t.Skip("three real servers; CI runs it by name under -race")
	}
	const (
		campaign   = "cluster-test"
		batch      = 64
		perNode    = 6 * batch // wire reports posted to each node
		pemPerNode = 5
	)
	ids := []string{"a", "b", "c"}
	hosts := hostdb.SecondStudyHosts()
	pool := certgen.NewKeyPool(2, nil)
	auth, err := study.BuildAuthoritative(hosts, pool)
	if err != nil {
		t.Fatal(err)
	}
	// The substitute chain an interceptor would serve: same host names,
	// a different issuer.
	proxyCA, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "FortiGate CA", Organization: []string{"Fortinet"}},
		KeyBits: 1024, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	var refs []hostChain
	forged := make(map[string][][]byte)
	for _, h := range hosts {
		refs = append(refs, hostChain{host: h.Name, chain: auth.Chains[h.Name]})
		leaf, err := proxyCA.IssueLeaf(certgen.LeafConfig{CommonName: h.Name, KeyBits: 1024, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		forged[h.Name] = leaf.ChainDER
	}
	// chainFor is the deterministic report stream: one in five reports
	// saw the interceptor.
	chainFor := func(i int) (string, [][]byte) {
		h := hosts[i%len(hosts)].Name
		if i%5 == 0 {
			return h, forged[h]
		}
		return h, auth.Chains[h]
	}

	var members []cluster.Member
	var peers []string
	for _, id := range ids {
		m := cluster.Member{ID: id, URL: "http://" + reserveAddr(t)}
		members = append(members, m)
		peers = append(peers, m.ID+"="+m.URL)
	}
	view, err := cluster.NewMembership(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	orchView, err := cluster.NewMembership(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	orch := &fleet.Orchestrator{
		Members: orchView,
		HTTP:    resilient.SplitTimeoutClient(2*time.Second, 10*time.Second, nil),
		Scorer:  cluster.NewScorer(cluster.SuspicionConfig{}),
		Logf:    t.Logf,
	}
	owners := make(map[string]int)
	for _, h := range hosts {
		o, _ := view.Owner(h.Name)
		owners[o.ID]++
	}
	if len(hosts) < 8 || len(owners) < 2 {
		t.Fatalf("fixture too small to mix ownership: %d hosts owned by %v", len(hosts), owners)
	}

	// Every collector stamps the same instant, so the control below can
	// reproduce the stored measurements byte for byte.
	stamp := time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
	clock := func() time.Time { return stamp }

	type running struct {
		srv  *server
		sig  chan os.Signal
		done chan error
	}
	fleet := make(map[string]*running)
	root := t.TempDir()
	for _, m := range members {
		srv, err := newServer(serverConfig{
			listen:       strings.TrimPrefix(m.URL, "http://"),
			campaign:     campaign,
			shards:       2,
			dataDir:      filepath.Join(root, m.ID),
			refs:         refs,
			clusterID:    m.ID,
			clusterPeers: strings.Join(peers, ","),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.col.Clock = clock
		if err := srv.start(); err != nil {
			t.Fatal(err)
		}
		r := &running{srv: srv, sig: make(chan os.Signal, 1), done: make(chan error, 1)}
		go func() { r.done <- srv.serve(r.sig) }()
		fleet[m.ID] = r
	}

	// The control: the same reports through one collector into one store.
	control := store.New(0)
	controlCol := core.NewCollector(classify.NewClassifier(), geo.NewDB(), control)
	controlCol.Clock = clock
	for _, ref := range refs {
		controlCol.SetAuthoritative(ref.host, ref.chain)
	}
	const loopback = 0x7f000001
	expect := func(host string, chain [][]byte) {
		if _, err := controlCol.Ingest(loopback, host, chain, campaign); err != nil {
			t.Fatal(err)
		}
	}

	var posted atomic.Int64
	var wg sync.WaitGroup
	clients := make(map[string]*ingest.Client)
	errs := make(chan error, len(members))
	for ni, m := range members {
		c := ingest.NewClient(m.URL + "/ingest/batch")
		c.BatchSize = batch
		c.Retries = 2
		clients[m.ID] = c
		var reports []ingest.Report
		for i := 0; i < perNode; i++ {
			host, chain := chainFor(ni*perNode + i)
			expect(host, chain)
			reports = append(reports, ingest.Report{Host: host, ChainDER: chain})
		}
		// PEM reports for hosts this node does not own: /report routes
		// by ownership too.
		var pems []string
		for i := 0; len(pems) < pemPerNode; i++ {
			host, chain := chainFor(ni + 3*i)
			if o, _ := view.Owner(host); o.ID == m.ID {
				continue
			}
			expect(host, chain)
			pems = append(pems, fmt.Sprintf("%s/report?host=%s\n%s", m.URL, host, x509util.EncodeChainPEM(chain)))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, rep := range reports {
				if err := c.Report(rep); err != nil {
					errs <- fmt.Errorf("node %s: %w", m.ID, err)
					return
				}
				posted.Add(1)
				if i%batch == 0 && i/batch < len(pems) {
					url, pem, _ := strings.Cut(pems[i/batch], "\n")
					resp, err := http.Post(url, "application/x-pem-file", strings.NewReader(pem))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("node %s: PEM report: HTTP %d", m.ID, resp.StatusCode)
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				errs <- fmt.Errorf("node %s: %w", m.ID, err)
			}
		}()
	}

	// Drain a mid-run through the orchestrator: peers first, then a.
	for posted.Load() < int64(len(members)*perNode/3) {
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	if err := orch.Drain("a"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	for _, m := range members {
		st := clients[m.ID].Stats()
		if st.PostErrors != 0 || st.Accepted != perNode || st.Rejected != 0 {
			t.Errorf("client of %s: %+v, want %d accepted and no errors", m.ID, st, perNode)
		}
		for _, mv := range fleet[m.ID].srv.reg.Snapshot() {
			if mv.Name == "route_lost_total" && mv.Value != 0 {
				t.Errorf("node %s: route_lost_total = %v", m.ID, mv.Value)
			}
		}
	}
	merged, err := orch.Merge()
	if err != nil {
		t.Fatal(err)
	}
	want := store.Merge(0, control)
	if got := merged.Totals(); got != want.Totals() || got.Proxied == 0 {
		t.Errorf("merged totals %+v, control %+v", got, want.Totals())
	}
	if !bytes.Equal(merged.AppendSnapshot(nil), want.AppendSnapshot(nil)) {
		t.Error("merged cluster snapshot differs from the sequential control's canonical bytes")
	}

	for _, m := range members {
		fleet[m.ID].sig <- os.Interrupt
	}
	for _, m := range members {
		select {
		case err := <-fleet[m.ID].done:
			if err != nil {
				t.Errorf("node %s shutdown: %v", m.ID, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("node %s did not exit after SIGINT", m.ID)
		}
	}
}
