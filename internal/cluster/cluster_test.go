package cluster

import (
	"crypto/x509"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/ingest"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
)

// testMeasurements builds a deterministic stream spread over enough
// distinct hosts that any ring partition splits it across every node.
func testMeasurements(n int, seed uint64) []core.Measurement {
	r := stats.NewRNG(seed)
	countries := []string{"US", "BR", "IN", "DE", "??", "JP"}
	cats := []hostdb.Category{hostdb.Popular, hostdb.Business, hostdb.Popular}
	campaigns := []string{"broad", "targeted-br"}
	epoch := time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, 0, n)
	for i := 0; i < n; i++ {
		hi := r.Intn(24)
		m := core.Measurement{
			Time:         epoch.Add(time.Duration(i) * time.Minute),
			ClientIP:     uint32(r.Uint64()>>16) | 1,
			Country:      countries[r.Intn(len(countries))],
			Host:         fmt.Sprintf("host-%02d.example", hi),
			HostCategory: cats[hi%len(cats)],
			Campaign:     campaigns[r.Intn(len(campaigns))],
		}
		if r.Bool(0.35) {
			bits := []int{512, 1024, 2048, 2432}[r.Intn(4)]
			m.Obs = core.Observation{
				Proxied:     true,
				IssuerOrg:   "Fortinet",
				IssuerCN:    "FortiGate CA",
				ProductName: "FortiGate",
				KeyBits:     bits,
				WeakKey:     bits < 2048,
				SigAlg:      x509.SHA256WithRSA,
				ChainLen:    1 + r.Intn(3),
				Category:    classify.Category(r.Intn(5)),
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// canonSnapshot renders a store through one more canonical merge so any
// two stores holding the same measurements compare byte-identical
// regardless of how the cluster partitioned them.
func canonSnapshot(dbs ...*store.DB) []byte {
	return store.Merge(0, dbs...).AppendSnapshot(nil)
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1 := NewRing([]string{"a", "b", "c"}, 0)
	r2 := NewRing([]string{"c", "b", "a", "b", ""}, 0) // order and junk must not matter
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("host-%04d.example", i)
		o1, ok1 := r1.Owner(k)
		o2, ok2 := r2.Owner(k)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("key %q: owners %q/%q (ok %v/%v) differ across build orders", k, o1, o2, ok1, ok2)
		}
		counts[o1]++
	}
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] < keys*15/100 {
			t.Fatalf("node %s owns only %d/%d keys; vnode smoothing failed: %v", id, counts[id], keys, counts)
		}
	}
	if _, ok := NewRing(nil, 0).Owner("x"); ok {
		t.Fatal("empty ring claimed an owner")
	}
}

func TestRingSuccessor(t *testing.T) {
	ids := []string{"a", "b", "c"}
	r := NewRing(ids, 0)
	seen := map[string]string{}
	for _, id := range ids {
		succ, ok := r.Successor(id)
		if !ok || succ == id {
			t.Fatalf("successor of %s = %q, %v", id, succ, ok)
		}
		seen[id] = succ
	}
	// Deterministic across rebuilds.
	again := NewRing([]string{"c", "a", "b"}, 0)
	for id, want := range seen {
		if got, _ := again.Successor(id); got != want {
			t.Fatalf("successor of %s changed across builds: %s then %s", id, want, got)
		}
	}
	if _, ok := NewRing([]string{"solo"}, 0).Successor("solo"); ok {
		t.Fatal("one-node ring produced a successor")
	}
}

func TestMembershipLifecycle(t *testing.T) {
	members := []Member{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}, {ID: "c", URL: "http://c"}}
	ms, err := NewMembership(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Epoch() != 0 || ms.AliveCount() != 3 {
		t.Fatalf("fresh view: epoch %d, alive %d", ms.Epoch(), ms.AliveCount())
	}
	// Find a host a owns, drain a, and watch ownership move.
	var host string
	for i := 0; ; i++ {
		h := fmt.Sprintf("host-%d.example", i)
		if m, ok := ms.Owner(h); ok && m.ID == "a" {
			host = h
			break
		}
	}
	if !ms.MarkDraining("a") {
		t.Fatal("draining transition reported no change")
	}
	if ms.Epoch() != 1 {
		t.Fatalf("epoch after drain = %d", ms.Epoch())
	}
	if m, _ := ms.Owner(host); m.ID == "a" {
		t.Fatal("draining member still owns ring arcs")
	}
	if ms.MarkDraining("a") {
		t.Fatal("repeated transition claimed a change")
	}
	if !ms.MarkDead("a") {
		t.Fatal("draining→dead refused")
	}
	if ms.SetState("a", Alive) {
		t.Fatal("dead is terminal; resurrection must be refused")
	}
	if ms.AliveCount() != 2 || ms.Epoch() != 2 {
		t.Fatalf("after death: alive %d, epoch %d", ms.AliveCount(), ms.Epoch())
	}
	if _, err := NewMembership([]Member{{ID: "x"}, {ID: "x"}}, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestParseMembers(t *testing.T) {
	got, err := ParseMembers("a=http://127.0.0.1:1,b=http://127.0.0.1:2/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "a" || got[1].URL != "http://127.0.0.1:2" {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{"", "a", "=url", "a="} {
		if _, err := ParseMembers(bad); err == nil {
			t.Fatalf("ParseMembers(%q) accepted", bad)
		}
	}
}

// batchOf builds ms into one batch with Add, as a request's batch is.
func batchOf(ms []core.Measurement) *core.Batch {
	b := new(core.Batch)
	for i := range ms {
		b.Add(&ms[i])
	}
	return b
}

func TestMeasWireRoundTripAndDamage(t *testing.T) {
	ms := testMeasurements(50, 3)
	// ID 0 ("no dedup") rides the same wire as any other ID.
	for _, id := range []uint64{0, 0xfeedface} {
		enc := AppendMeasurementsID(nil, id, ms)
		dec, gotID, err := DecodeMeasurementsID(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(ms) || gotID != id {
			t.Fatalf("decoded %d of %d, id %#x want %#x", len(dec), len(ms), gotID, id)
		}
		// The codec is canonical: re-encoding the decode reproduces the bytes.
		if re := AppendMeasurementsID(nil, gotID, dec); string(re) != string(enc) {
			t.Fatal("re-encoded batch differs from the original bytes")
		}
		for cut := 1; cut < len(enc); cut += 97 {
			if _, _, err := DecodeMeasurementsID(enc[:cut]); err == nil {
				t.Fatalf("truncation at %d decoded cleanly", cut)
			}
		}
		if _, _, err := DecodeMeasurementsID(append(append([]byte{}, enc...), 0x00)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
	// Retired and unknown revisions are refused, not guessed at.
	for _, magic := range []string{"TFM1", "TFM2"} {
		bad := append([]byte(magic), AppendMeasurementsID(nil, 1, ms)[4:]...)
		if _, _, err := DecodeMeasurementsID(bad); err == nil {
			t.Fatalf("magic %q accepted", magic)
		}
	}
	// A row count past core.MaxBatchRows is refused by name, even under a
	// CRC that matches.
	huge := AppendMeasurementsID(nil, 1, nil)
	binary.LittleEndian.PutUint32(huge[25:], core.MaxBatchRows+1)
	binary.LittleEndian.PutUint32(huge[5:], crc32.Checksum(huge[9:], crc32.MakeTable(crc32.Castagnoli)))
	if _, _, err := DecodeMeasurementsID(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized count: %v", err)
	}
}

// TestRouteBatchSizeCapped: a router configured for batches larger than
// one ingest body holds sends bodies of at most core.MaxBatchRows rows,
// each of which decodes, and loses nothing; encoding a larger batch
// panics instead of wrapping its table indexes.
func TestRouteBatchSizeCapped(t *testing.T) {
	var mu sync.Mutex
	var bodies []int
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ms, _, err := DecodeMeasurementsID(body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(ingest.BatchResult{Error: err.Error()})
			return
		}
		mu.Lock()
		bodies = append(bodies, len(ms))
		mu.Unlock()
		json.NewEncoder(w).Encode(ingest.BatchResult{Accepted: len(ms)})
	}))
	defer owner.Close()
	view, err := NewMembership([]Member{{ID: "a", URL: owner.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRouteClient(RouteConfig{Members: view, BatchSize: 4 * core.MaxBatchRows})
	if err != nil {
		t.Fatal(err)
	}
	ms := testMeasurements(core.MaxBatchRows+10, 6)
	if err := rc.Deliver(batchOf(ms)); err != nil {
		t.Fatalf("deliver of %d measurements: %v", len(ms), err)
	}
	if st := rc.Stats(); st.Delivered != uint64(len(ms)) || st.Lost != 0 {
		t.Fatalf("stats = %+v, want all %d delivered", st, len(ms))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 || bodies[0] != core.MaxBatchRows {
		t.Fatalf("bodies of %v rows, want one of %d and the rest after it", bodies, core.MaxBatchRows)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a batch past core.MaxBatchRows did not panic")
		}
	}()
	AppendMeasurementsID(nil, 1, append(ms, ms...))
}

// TestDeliverErrorIsPerCall: the synchronous entry point reportd commits
// each request through reports a loss to the call that suffered it and to
// no other — Flush's sticky first error would turn one refused batch into
// a 503 for every request after it.
func TestDeliverErrorIsPerCall(t *testing.T) {
	var refuse atomic.Bool
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ms, _, err := DecodeMeasurementsID(body)
		if err != nil {
			t.Errorf("owner got an undecodable batch: %v", err)
		}
		if refuse.Load() {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(ingest.BatchResult{Error: "refused"})
			return
		}
		json.NewEncoder(w).Encode(ingest.BatchResult{Accepted: len(ms)})
	}))
	defer owner.Close()
	view, err := NewMembership([]Member{{ID: "a", URL: owner.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRouteClient(RouteConfig{Members: view})
	if err != nil {
		t.Fatal(err)
	}
	ms := testMeasurements(30, 5)
	if err := rc.Deliver(batchOf(ms[:10])); err != nil {
		t.Fatalf("clean deliver: %v", err)
	}
	refuse.Store(true)
	if err := rc.Deliver(batchOf(ms[10:20])); err == nil || !strings.Contains(err.Error(), "10 of 10 measurements") {
		t.Fatalf("deliver of a refused batch returned %v, want an error naming its 10 measurements", err)
	}
	refuse.Store(false)
	if err := rc.Deliver(batchOf(ms[20:])); err != nil {
		t.Fatalf("deliver after a lost batch is poisoned: %v", err)
	}
	if err := rc.Deliver(batchOf(nil)); err != nil {
		t.Fatalf("empty deliver: %v", err)
	}
	st := rc.Stats()
	if st.Ingested != 30 || st.Delivered != 20 || st.Lost != 10 {
		t.Fatalf("stats = %+v, want 30 ingested, 20 delivered, the refused batch's 10 lost", st)
	}
	if rc.Err() == nil {
		t.Fatal("the sticky error forgot the lost batch")
	}
}

// TestDeliverFlushesReroutedRows: Deliver returns only once every owner
// buffer is empty, rows rerouted mid-flush included. Owner b is down and
// a refuses to relay for it, so b's rows are rerouted to a — possibly
// after a's own buffer was flushed in the same pass. Map order decides
// whether that happens, hence many trials.
func TestDeliverFlushesReroutedRows(t *testing.T) {
	var accepted atomic.Int64
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("relay") == "1" {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		body, _ := io.ReadAll(r.Body)
		ms, _, err := DecodeMeasurementsID(body)
		if err != nil {
			t.Errorf("owner got an undecodable batch: %v", err)
		}
		accepted.Add(int64(len(ms)))
		json.NewEncoder(w).Encode(ingest.BatchResult{Accepted: len(ms)})
	}))
	defer a.Close()
	b := httptest.NewServer(http.NotFoundHandler())
	b.Close() // b's port now refuses connections

	ms := testMeasurements(200, 7)
	for trial := 0; trial < 40; trial++ {
		view, err := NewMembership([]Member{{ID: "a", URL: a.URL}, {ID: "b", URL: b.URL}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := NewRouteClient(RouteConfig{Members: view, RetryDelay: time.Millisecond, Seed: uint64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		before := accepted.Load()
		if err := rc.Deliver(batchOf(ms)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st := rc.Stats()
		if got := accepted.Load() - before; got != int64(len(ms)) || st.Delivered != uint64(len(ms)) || st.Rerouted == 0 {
			t.Fatalf("trial %d: Deliver returned nil with %d of %d rows at the owner (stats %+v)", trial, got, len(ms), st)
		}
	}
}
