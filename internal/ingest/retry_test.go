package ingest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/faultnet"
)

// retryReport is a minimal valid report for upload tests.
var retryReport = Report{Host: "example.test", ChainDER: [][]byte{{0x30, 0x01, 0x02}}}

// killingHandler kills the first n connections at the TCP level (the
// partial-flush failure a hostile wire produces), then answers like the
// batch endpoint.
func killingHandler(n int64) http.HandlerFunc {
	var served atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= n {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		json.NewEncoder(w).Encode(BatchResult{Accepted: 1})
	}
}

func TestClientRetriesKilledFlush(t *testing.T) {
	srv := httptest.NewServer(killingHandler(1))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retries = 2
	c.RetryDelay = time.Millisecond
	if err := c.Report(retryReport); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after one killed attempt: %v", err)
	}
	st := c.Stats()
	if st.Retries != 1 || st.PostErrors != 0 || st.Accepted != 1 {
		t.Fatalf("stats = %+v, want 1 retry, 0 post errors, 1 accepted", st)
	}
}

func TestClientRetriesExhausted(t *testing.T) {
	srv := httptest.NewServer(killingHandler(1 << 30))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retries = 2
	c.RetryDelay = time.Millisecond
	c.Report(retryReport)
	err := c.Flush()
	if err == nil {
		t.Fatalf("flush succeeded against a connection-killing server")
	}
	st := c.Stats()
	if st.Retries != 2 || st.PostErrors != 1 {
		t.Fatalf("stats = %+v, want 2 retries then 1 post error", st)
	}
}

func TestClientDoesNotRetryDecodedRejection(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(BatchResult{Error: "bad wire magic"})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retries = 3
	c.RetryDelay = time.Millisecond
	c.Report(retryReport)
	err := c.Flush()
	if err == nil || !strings.Contains(err.Error(), "bad wire magic") {
		t.Fatalf("flush error = %v, want the server's decoded verdict", err)
	}
	st := c.Stats()
	if posts.Load() != 1 || st.Retries != 0 {
		t.Fatalf("decoded rejection was retried: %d posts, stats %+v", posts.Load(), st)
	}
}

func TestClientRetries5xx(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			// A decodable body on a 5xx must not fold into the stats —
			// the batch is about to be re-sent and would double-count.
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(BatchResult{Accepted: 99})
			return
		}
		json.NewEncoder(w).Encode(BatchResult{Accepted: 1})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retries = 1
	c.RetryDelay = time.Millisecond
	c.Report(retryReport)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after a 503: %v", err)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Accepted != 1 || st.PostErrors != 0 {
		t.Fatalf("stats = %+v (a retried 503's Accepted must not fold)", st)
	}
}

// TestClientDoesNotRetryWrongEndpoint: a 404's HTML page fails
// identically every time — deterministic endpoint mismatches must not
// burn retry backoff inside the probe workers' flush path.
func TestClientDoesNotRetryWrongEndpoint(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retries = 3
	c.RetryDelay = time.Millisecond
	c.Report(retryReport)
	if err := c.Flush(); err == nil {
		t.Fatalf("flush against a 404 succeeded")
	}
	st := c.Stats()
	if posts.Load() != 1 || st.Retries != 0 || st.PostErrors != 1 {
		t.Fatalf("404 was retried: %d posts, stats %+v", posts.Load(), st)
	}
}

// TestClientRetriesThroughFaultTransport drives the upload through a
// faultnet plan that resets the first connection and leaves the second
// clean — the Transport mount point of the fault plane, end to end.
func TestClientRetriesThroughFaultTransport(t *testing.T) {
	// A connection's byte scenario is fixed when it is dialed: the first
	// is dialed in the reset phase, and the request it still delivers
	// advances the plan, so the retry dials in the clean phase.
	plan, err := faultnet.Parse("seed=11, reset=client:*, reset=1; name=clean")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultnet.New(plan)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		faults.Advance()
		json.NewEncoder(w).Encode(BatchResult{Accepted: 1})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.HTTPClient = &http.Client{Transport: faults.Transport("client")}
	c.Retries = 3
	c.RetryDelay = time.Millisecond
	c.Report(retryReport)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush through fault transport: %v", err)
	}
	st := c.Stats()
	if st.Accepted != 1 || st.Retries == 0 {
		t.Fatalf("stats = %+v, want an accepted batch after at least one retry", st)
	}
	fstats := faults.Stats()
	if fstats["client:*"].Resets == 0 {
		t.Fatalf("fault plan stats show no injected reset: %+v", fstats)
	}
}
