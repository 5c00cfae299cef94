package ingest

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
)

// TestClientBatchesAndAccounts drives the uploader against the real batch
// endpoint: reports batch at BatchSize, a trailing Flush ships the
// remainder, and the server's accept/reject verdicts land in the stats.
func TestClientBatchesAndAccounts(t *testing.T) {
	chain := testChain(t, "client.example")
	p := NewPipeline(Config{Shards: 2})
	defer p.Close()
	col := core.NewCollector(classify.NewClassifier(), nil, p)
	col.SetAuthoritative("client.example", chain)
	srv := httptest.NewServer(BatchHandler(col))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.BatchSize = 10

	const workers, perWorker = 4, 13 // 52 reports: 5 full batches + 2 on Flush
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				host := "client.example"
				if i == 0 {
					host = "unknown.example" // rejected server-side
				}
				if err := c.Report(Report{Host: host, ChainDER: chain}); err != nil {
					t.Errorf("report: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Reported != workers*perWorker {
		t.Fatalf("reported = %d, want %d", st.Reported, workers*perWorker)
	}
	if st.Accepted+st.Rejected != st.Reported {
		t.Fatalf("accounting leak: %d accepted + %d rejected != %d reported",
			st.Accepted, st.Rejected, st.Reported)
	}
	if st.Rejected != workers {
		t.Fatalf("rejected = %d, want %d (one unknown host per worker)", st.Rejected, workers)
	}
	if st.PostErrors != 0 {
		t.Fatalf("post errors = %d", st.PostErrors)
	}
	if st.Posts < st.Reported/uint64(c.BatchSize) {
		t.Fatalf("posts = %d, too few for %d reports at batch %d", st.Posts, st.Reported, c.BatchSize)
	}
	p.Drain()
	if got := p.Merge(0).Totals().Tested; got != int(st.Accepted) {
		t.Fatalf("store tested = %d, want %d", got, st.Accepted)
	}
}

// TestClientCountsBadEndpoint: a wrong URL (404 text, not a BatchResult)
// must surface in PostErrors, not report silent success — run.sh and the
// fleet exit code key off this stat.
func TestClientCountsBadEndpoint(t *testing.T) {
	chain := testChain(t, "client.example")
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	c := NewClient(srv.URL + "/ingest/batch")
	if err := c.Report(Report{Host: "client.example", ChainDER: chain}); err != nil {
		t.Fatalf("report buffered, should not error yet: %v", err)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("flush against a 404 endpoint reported success")
	}
	st := c.Stats()
	if st.PostErrors != 1 || st.Accepted != 0 {
		t.Fatalf("stats = %+v, want 1 post error and 0 accepted", st)
	}
}

// TestClientFlushEmpty: flushing an empty buffer is a no-op, not a POST.
func TestClientFlushEmpty(t *testing.T) {
	c := NewClient("http://127.0.0.1:1/ingest/batch") // nothing listens here
	if err := c.Flush(); err != nil {
		t.Fatalf("empty flush tried the network: %v", err)
	}
	if st := c.Stats(); st.Posts != 0 {
		t.Fatalf("posts = %d, want 0", st.Posts)
	}
}
