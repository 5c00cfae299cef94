package ingest

import (
	"bytes"
	"crypto/x509/pkix"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
)

func testChain(t testing.TB, host string) [][]byte {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "DigiCert High Assurance CA-3", Organization: []string{"DigiCert Inc"}},
		KeyBits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 2048})
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

	p := NewPipeline(Config{Shards: 2})
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
	// One forged chain (another CA's): accepted, and proxied.
	reports = append(reports, Report{Host: "tlsresearch.byu.edu", ChainDER: testChain(t, "tlsresearch.byu.edu")})
	// One report for a host the collector does not know: rejected.
	reports = append(reports, Report{Host: "unknown.example", ChainDER: chain})
	stream, err := AppendReports(nil, reports)
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
	if res.Accepted != good+1 || res.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want %d/1", res.Accepted, res.Rejected, good+1)
	}

	p.Close()
	db := p.Merge(0)
	tot := db.Totals()
	if tot.Tested != good+1 {
		t.Fatalf("store tested = %d, want %d", tot.Tested, good+1)
	}
	if tot.Proxied != 1 {
		t.Fatalf("store proxied = %d, want the forged chain's 1", tot.Proxied)
	}
	// Every measurement carries the collector's campaign, so the
	// proxied record the store keeps names it.
	if recs := db.ProxiedRecords(); len(recs) != 1 || recs[0].Campaign != "wire-test" {
		t.Fatalf("proxied records %+v, want one of campaign wire-test", recs)
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

// postBatch posts one wire body to a batch endpoint and returns the
// decoded verdict.
func postBatch(t *testing.T, url string, body []byte) (int, BatchResult) {
	t.Helper()
	res, status, err := PostBatch(http.DefaultClient, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, res
}

// TestBatchHandlerAllOrNothing: a stream damaged at frame k — cut short,
// or referencing an entry past its table — answers 400 and ingests
// nothing, not even the k-1 reports that decoded cleanly, so the client's
// re-send of the intact stream counts each report once.
func TestBatchHandlerAllOrNothing(t *testing.T) {
	var ingested atomic.Int64
	col := core.NewCollector(classify.NewClassifier(), nil, core.SinkFunc(func(core.Measurement) { ingested.Add(1) }))
	chain := testChain(t, "owned.test")
	col.SetAuthoritative("owned.test", chain)
	srv := httptest.NewServer(BatchHandler(col))
	defer srv.Close()

	const n, k = 6, 4
	reports := make([]Report, n)
	for i := range reports {
		reports[i] = Report{Host: "owned.test", ChainDER: chain}
	}
	whole, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := AppendReports(nil, reports[:k])
	if err != nil {
		t.Fatal(err)
	}
	// Frame k is cut inside (frames 2..k repeat entry 1 in two bytes, so
	// one byte off leaves frames 1..k-1 intact), or names entry 2 of a
	// one-entry table.
	for _, damaged := range [][]byte{prefix[:len(prefix)-1], append(prefix[:len(prefix):len(prefix)], 0x00, 0x02)} {
		status, res := postBatch(t, srv.URL, damaged)
		if status != http.StatusBadRequest || res.Error == "" {
			t.Fatalf("damaged stream: status %d, verdict %+v; want 400 naming the damage", status, res)
		}
		if res.Accepted != 0 || ingested.Load() != 0 {
			t.Fatalf("damaged stream ingested %d reports (verdict says %d); all-or-nothing violated", ingested.Load(), res.Accepted)
		}
	}

	status, res := postBatch(t, srv.URL, whole)
	if status != http.StatusOK || res.Accepted != n || ingested.Load() != n {
		t.Fatalf("re-sent intact stream: status %d, verdict %+v, sink saw %d; want %d accepted once", status, res, ingested.Load(), n)
	}
}

// failingCommitter is a core.BatchCommitter whose commit fails on demand.
type failingCommitter struct {
	err       error
	committed int
}

func (f *failingCommitter) Ingest(core.Measurement) {
	panic("batch intake must commit through Deliver")
}

func (f *failingCommitter) Deliver(b *core.Batch) error {
	if f.err != nil {
		return f.err
	}
	f.committed += int(b.Count())
	return nil
}

// TestBatchHandlerCommitError: "accepted" means committed. A commit the
// storage refuses answers 503 with accepted 0, which Client retries.
func TestBatchHandlerCommitError(t *testing.T) {
	sink := &failingCommitter{err: errors.New("wal: disk full")}
	col := core.NewCollector(classify.NewClassifier(), nil, sink)
	chain := testChain(t, "owned.test")
	col.SetAuthoritative("owned.test", chain)
	srv := httptest.NewServer(BatchHandler(col))
	defer srv.Close()

	body, err := AppendReports(nil, []Report{{Host: "owned.test", ChainDER: chain}, {Host: "owned.test", ChainDER: chain}})
	if err != nil {
		t.Fatal(err)
	}
	status, res := postBatch(t, srv.URL, body)
	if status != http.StatusServiceUnavailable || res.Accepted != 0 || res.Error != "wal: disk full" {
		t.Fatalf("failed commit: status %d, verdict %+v; want 503, accepted 0, the commit error", status, res)
	}

	sink.err = nil
	status, res = postBatch(t, srv.URL, body)
	if status != http.StatusOK || res.Accepted != 2 || sink.committed != 2 {
		t.Fatalf("healed commit: status %d, verdict %+v, committed %d; want 2 accepted", status, res, sink.committed)
	}
}
