package fleet

import (
	"bytes"
	"crypto/x509"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
)

// measurements builds a deterministic stream spread over enough distinct
// hosts that any ring partition splits it across every node.
func measurements(n int, seed uint64) []core.Measurement {
	r := stats.NewRNG(seed)
	countries := []string{"US", "BR", "IN", "DE", "JP"}
	epoch := time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, 0, n)
	for i := 0; i < n; i++ {
		hi := r.Intn(24)
		m := core.Measurement{
			Time:         epoch.Add(time.Duration(i) * time.Minute),
			ClientIP:     uint32(r.Uint64()>>16) | 1,
			Country:      countries[r.Intn(len(countries))],
			Host:         fmt.Sprintf("host-%02d.example", hi),
			HostCategory: hostdb.Popular,
			Campaign:     "broad",
		}
		if r.Bool(0.3) {
			m.Obs = core.Observation{
				Proxied: true, IssuerOrg: "Fortinet", IssuerCN: "FortiGate CA", ProductName: "FortiGate",
				KeyBits: 1024, WeakKey: true, SigAlg: x509.SHA256WithRSA, ChainLen: 2, Category: classify.Category(r.Intn(5)),
			}
		}
		ms = append(ms, m)
	}
	return ms
}

func canon(dbs ...*store.DB) []byte { return store.Merge(0, dbs...).AppendSnapshot(nil) }

func storeOf(ms []core.Measurement) *store.DB {
	db := store.New(0)
	for _, m := range ms {
		db.Ingest(m)
	}
	return db
}

// fakeFleet is a set of httptest peers that record every request they
// answer, in arrival order, and can be taken off the air.
type fakeFleet struct {
	members []cluster.Member
	down    map[string]*atomic.Bool

	mu    sync.Mutex
	calls []string // "<peer> <request URI>"
}

func newFakeFleet(t *testing.T, ids ...string) *fakeFleet {
	t.Helper()
	f := &fakeFleet{down: make(map[string]*atomic.Bool)}
	for _, id := range ids {
		down := new(atomic.Bool)
		f.down[id] = down
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				// Unreachable: the connection dies without an answer.
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
				return
			}
			f.mu.Lock()
			f.calls = append(f.calls, id+" "+r.URL.RequestURI())
			f.mu.Unlock()
		}))
		t.Cleanup(srv.Close)
		f.members = append(f.members, cluster.Member{ID: id, URL: srv.URL})
	}
	return f
}

func (f *fakeFleet) log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func (f *fakeFleet) received(call string) bool {
	for _, c := range f.log() {
		if c == call {
			return true
		}
	}
	return false
}

// newOrchestrator builds an orchestrator over its own view of members.
func newOrchestrator(t *testing.T, members []cluster.Member) *Orchestrator {
	t.Helper()
	view, err := cluster.NewMembership(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Orchestrator{
		Members: view,
		HTTP:    &http.Client{Timeout: 10 * time.Second},
		Scorer:  cluster.NewScorer(cluster.SuspicionConfig{}),
	}
}

func (o *Orchestrator) queued() []mark {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]mark(nil), o.pending...)
}

func TestMarkQueuedThenRedeliveredWhenPeerReturns(t *testing.T) {
	f := newFakeFleet(t, "a", "b", "c")
	o := newOrchestrator(t, f.members)
	f.down["c"].Store(true)

	o.DeclareDead("a")
	if !f.received("b /cluster/dead?node=a") {
		t.Fatalf("reachable peer never got the mark: %v", f.log())
	}
	if q := o.queued(); len(q) != 1 || q[0] != (mark{kind: "dead", subject: "a", peer: "c"}) {
		t.Fatalf("queue after c missed the mark: %+v", q)
	}
	o.RedeliverMarks()
	if q := o.queued(); len(q) != 1 {
		t.Fatalf("a mark c still cannot take left the queue: %+v", q)
	}

	f.down["c"].Store(false)
	o.RedeliverMarks()
	if !f.received("c /cluster/dead?node=a") {
		t.Fatalf("returned peer never got the queued mark: %v", f.log())
	}
	if q := o.queued(); len(q) != 0 {
		t.Fatalf("delivered mark still queued: %+v", q)
	}
}

func TestMarkDroppedOncePeerDead(t *testing.T) {
	f := newFakeFleet(t, "a", "b", "c")
	o := newOrchestrator(t, f.members)
	f.down["c"].Store(true)
	if err := o.Drain("a"); err != nil {
		t.Fatal(err)
	}
	if q := o.queued(); len(q) != 1 || q[0].peer != "c" {
		t.Fatalf("queue after c missed the drain: %+v", q)
	}

	o.Members.MarkDead("c")
	f.down["c"].Store(false) // answering again, but dead to the orchestrator
	o.RedeliverMarks()
	if f.received("c /cluster/draining?node=a") {
		t.Fatal("a mark was re-delivered to a peer declared dead")
	}
	if q := o.queued(); len(q) != 0 {
		t.Fatalf("mark for a dead peer still queued: %+v", q)
	}
}

func TestMarkQueueDropsOldest(t *testing.T) {
	o := newOrchestrator(t, []cluster.Member{{ID: "a", URL: "http://127.0.0.1:1"}})
	for i := 0; i <= maxPendingMarks; i++ {
		o.enqueueMark(mark{kind: "dead", subject: fmt.Sprint(i), peer: "a"})
	}
	q := o.queued()
	if len(q) != maxPendingMarks || q[0].subject != "1" || q[len(q)-1].subject != fmt.Sprint(maxPendingMarks) {
		t.Fatalf("queue past its bound holds %d marks, %s..%s; want %d, 1..%d",
			len(q), q[0].subject, q[len(q)-1].subject, maxPendingMarks, maxPendingMarks)
	}
}

func TestDrainReachesPeersBeforeLeaver(t *testing.T) {
	f := newFakeFleet(t, "a", "b", "c", "d")
	o := newOrchestrator(t, f.members)
	if err := o.Drain("b"); err != nil {
		t.Fatal(err)
	}
	want := []string{"a /cluster/draining?node=b", "c /cluster/draining?node=b", "d /cluster/draining?node=b", "b /cluster/drain"}
	if got := f.log(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("drain order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if m, _ := o.Members.Get("b"); m.State != cluster.Draining {
		t.Fatalf("orchestrator's own view has b %v", m.State)
	}
	if err := o.Drain("zz"); err == nil {
		t.Fatal("drain of an unknown node reported success")
	}
}

// TestMergeHedgesPastSlowReplicaHolder: a survivor that sits on a replica
// fetch holds one attempt hostage; the hedge completes from the other.
func TestMergeHedgesPastSlowReplicaHolder(t *testing.T) {
	ms := measurements(300, 5)
	own := map[string]*store.DB{"b": storeOf(ms[:100]), "c": storeOf(ms[100:200])}
	deadShards := storeOf(ms[200:])
	var members []cluster.Member
	for _, id := range []string{"a", "b", "c"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/cluster/snapshot":
				w.Write(own[id].AppendSnapshot(nil))
			case r.URL.Path == "/cluster/replica" && id == "b":
				<-r.Context().Done() // the gray-failing holder never answers
			case r.URL.Path == "/cluster/replica" && id == "c":
				w.Write(deadShards.AppendSnapshot(nil))
			default:
				http.NotFound(w, r)
			}
		}))
		t.Cleanup(srv.Close)
		members = append(members, cluster.Member{ID: id, URL: srv.URL})
	}
	o := newOrchestrator(t, members)
	o.Members.MarkDead("a")

	start := time.Now()
	db, err := o.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > replicaHedge+5*time.Second {
		t.Fatalf("merge took %v: the hedge never raced past the slow holder", took)
	}
	if !bytes.Equal(canon(db), canon(storeOf(ms))) {
		t.Fatal("hedged merge differs from the control")
	}
}
