package ingest

import (
	"bytes"
	"crypto/x509/pkix"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
)

var testPool = certgen.NewKeyPool(2, nil)

func testChain(t testing.TB, host string) [][]byte {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "DigiCert High Assurance CA-3", Organization: []string{"DigiCert Inc"}},
		KeyBits: 1024, Pool: testPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 2048, Pool: testPool})
	if err != nil {
		t.Fatal(err)
	}
	return leaf.ChainDER
}

// TestBatchEndpointEndToEnd drives the wire codec through the HTTP batch
// endpoint into a sharded pipeline, and checks the merged store saw every
// report while rejects were counted, not dropped silently.
func TestBatchEndpointEndToEnd(t *testing.T) {
	chain := testChain(t, "tlsresearch.byu.edu")

	p := NewPipeline(Config{Shards: 2, BatchSize: 8})
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	col.Campaign = "wire-test"
	col.SetAuthoritative("tlsresearch.byu.edu", chain)

	srv := httptest.NewServer(BatchHandler(col))
	defer srv.Close()

	const good = 40
	reports := make([]Report, 0, good+1)
	for i := 0; i < good; i++ {
		reports = append(reports, Report{Host: "tlsresearch.byu.edu", ChainDER: chain})
	}
	// One report for a host the collector does not know: rejected.
	reports = append(reports, Report{Host: "unknown.example", ChainDER: chain})
	stream, err := EncodeReports(reports)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL, "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != good || res.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want %d/1", res.Accepted, res.Rejected, good)
	}

	p.Drain()
	p.Close()
	db := p.Merge(0)
	tot := db.Totals()
	if tot.Tested != good {
		t.Fatalf("store tested = %d, want %d", tot.Tested, good)
	}
	if tot.Proxied != 0 {
		t.Fatalf("clean chains flagged proxied: %d", tot.Proxied)
	}
	if got := db.ByCampaign()["wire-test"].Tested; got != good {
		t.Fatalf("campaign aggregate = %d, want %d", got, good)
	}
}

func TestBatchEndpointRejectsGarbage(t *testing.T) {
	p := NewPipeline(Config{Shards: 1})
	defer p.Close()
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	srv := httptest.NewServer(BatchHandler(col))
	defer srv.Close()

	resp, err := http.Post(srv.URL, "application/octet-stream", bytes.NewReader([]byte("not a wire stream")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage stream: status = %d, want 400", resp.StatusCode)
	}
	var res BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Error == "" {
		t.Fatal("no error reported for garbage stream")
	}

	// GET refused.
	getResp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", getResp.StatusCode)
	}
}

func TestStatsHandler(t *testing.T) {
	p := NewPipeline(Config{Shards: 3})
	for _, m := range synthetic(100, 9) {
		p.Ingest(m)
	}
	p.Drain()
	srv := httptest.NewServer(StatsHandler(p))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("stats shards = %d, want 3", len(st.Shards))
	}
	if st.Enqueued != 100 {
		t.Fatalf("enqueued = %d, want 100", st.Enqueued)
	}
	p.Close()
}
