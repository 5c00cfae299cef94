package ingest

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509/pkix"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/geo"
	"tlsfof/internal/telemetry"
)

// TestWALBytesPinned pins the WAL bytes a fixed sequence of TFW3
// requests leaves behind: BatchHandler into a durable two-shard Pipeline
// over a stepping Collector.Clock. The requests repeat entries, reach
// both shards, mix traced and untraced reports, and carry one unknown
// host and one unparsable chain. Any change to what a request commits,
// in which order, under which frame boundaries or trace slots, moves a
// digest.
func TestWALBytesPinned(t *testing.T) {
	const hostA = "tlsresearch.byu.edu"
	hostB := ""
	for _, h := range []string{"b.pin.example", "c.pin.example", "d.pin.example", "e.pin.example"} {
		if durable.ShardOf(h, 2) != durable.ShardOf(hostA, 2) {
			hostB = h
			break
		}
	}
	chainA, chainB := testChain(t, hostA), testChain(t, hostB)
	forge := func(host string) [][]byte {
		ca, err := certgen.NewRootCA(certgen.CAConfig{
			Subject: pkix.Name{CommonName: "Kaspersky Anti-Virus Personal Root Certificate", Organization: []string{"Kaspersky Lab ZAO"}},
			KeyBits: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return leaf.ChainDER
	}
	forgedA, forgedB := forge(hostA), forge(hostB)
	garbage := [][]byte{{0x30, 0x03, 0x01, 0x02, 0x03}}

	dir := t.TempDir()
	tracer := telemetry.NewTracer(telemetry.NewRegistry(), 0)
	pl, _, err := OpenPipeline(Config{Shards: 2, WALDir: dir, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewCollector(classify.NewClassifier(), geo.NewDB(), pl)
	col.Campaign = "pin"
	col.Tracer = tracer
	step := time.Date(2014, time.July, 1, 12, 0, 0, 0, time.UTC)
	col.Clock = func() time.Time { step = step.Add(1500 * time.Microsecond); return step }
	col.SetAuthoritative(hostA, chainA)
	col.SetAuthoritative(hostB, chainB)
	h := BatchHandler(col)

	a := Report{Host: hostA, ChainDER: chainA}
	b := Report{Host: hostB, ChainDER: chainB}
	fa := Report{Host: hostA, ChainDER: forgedA}
	fb := Report{Host: hostB, ChainDER: forgedB}
	unknown := Report{Host: "unknown.pin.example", ChainDER: chainA}
	bad := Report{Host: hostB, ChainDER: garbage}
	traced := func(r Report, id uint64) Report { r.Trace = id; return r }
	requests := []struct {
		addr    string
		reports []Report
	}{
		{"1.0.0.7:4001", []Report{traced(a, 11), b, traced(a, 13), traced(fa, 14), unknown, b, fa, traced(fb, 18)}},
		{"41.0.3.9:4002", []Report{b, traced(b, 22), a, bad, fa, traced(a, 26), fb, b, a}},
		{"1.0.0.7:4003", []Report{a, a, traced(fa, 33), unknown, fb, fb, traced(b, 37)}},
		{"8.8.8.8:4004", []Report{traced(fb, 41), a}},
	}
	accepted := 0
	for i, req := range requests {
		body, err := AppendReports(nil, req.reports)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(body))
		r.RemoteAddr = req.addr
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
		var res BatchResult
		if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		accepted += res.Accepted
	}
	if accepted != 23 {
		t.Fatalf("%d reports accepted, want 23", accepted)
	}
	// Each request is one frame on each shard it reaches: all four reach
	// both.
	var frames uint64
	for _, st := range pl.WALStats() {
		frames += st.AppendedFrames
	}
	if frames != 8 {
		t.Fatalf("%d frames appended, want 8", frames)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"01aa7d7e3dee5842f5c10d249a2cd20af9bc71bba333fd80d063f7a3df9d70bb",
		"b821f7fe136edc9d4ff4b1213c60736e83fb3723654347842a2e0132e9d0c636",
	}
	for i := range 2 {
		segs, err := filepath.Glob(filepath.Join(durable.ShardDir(dir, i), "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(segs)
		sum := sha256.New()
		size := 0
		for _, seg := range segs {
			p, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			sum.Write(p)
			size += len(p)
		}
		if size < 64 {
			t.Errorf("shard %d: %d WAL bytes; the requests should reach both shards", i, size)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != want[i] {
			t.Errorf("shard %d: WAL bytes hash to %s, want %s", i, got, want[i])
		}
	}
}
