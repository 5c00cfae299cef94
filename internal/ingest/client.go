package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tlsfof/internal/resilient"
)

// DefaultClientBatch is the report count at which Client flushes
// automatically. At the wire format's ~1-4 KiB per report this keeps POST
// bodies well under reportd's request bound while amortizing the HTTP
// round trip across hundreds of probes.
const DefaultClientBatch = 256

// ClientStats is the uploader's accounting: what left the client and what
// the server said about it.
type ClientStats struct {
	// Reported counts reports handed to Report.
	Reported uint64 `json:"reported"`
	// Posts counts attempted HTTP round trips; PostErrors counts posts
	// that did not fully succeed (transport failure, undecodable
	// response, non-200 status, or a server-reported stream error) after
	// retries were exhausted. Retries counts re-sent batches: a flush
	// that failed partway (transport error, truncated response, 5xx) and
	// was attempted again.
	Posts      uint64 `json:"posts"`
	PostErrors uint64 `json:"post_errors"`
	Retries    uint64 `json:"retries"`
	// Accepted and Rejected sum the server's per-batch BatchResult.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
}

// Client batches reports and streams them to a reportd /ingest/batch
// endpoint in the binary wire format — the upload half of the live-wire
// loop (probe fleet → proxy → ingest). Safe for concurrent use by many
// probe workers; batching serializes on one mutex, the HTTP round trip
// runs outside it.
type Client struct {
	// URL is the full endpoint, e.g. "http://127.0.0.1:8080/ingest/batch".
	URL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
	// BatchSize triggers an automatic flush (DefaultClientBatch when <= 0).
	BatchSize int
	// Retries is how many times a failed flush is re-sent before the
	// batch is declared lost. Only transport-level damage is retried —
	// a connection error, a response that did not decode, or a 5xx —
	// never a decoded server verdict (4xx rejections are final). Hostile
	// networks routinely kill an upload mid-flush; the measurement must
	// not shed a whole batch for one reset. A stream the server refused
	// applied nothing, so re-sending it cannot double-count. Uploads carry
	// no batch ID, though: a retry after a lost ack (the batch committed,
	// the 200 died on the wire) does double-count, and so may one after a
	// 503 from a cluster node that committed part of the batch; the
	// study's aggregate tables tolerate that (§4's campaign counts are
	// lower bounds).
	Retries int
	// RetryDelay is the backoff base before the first retry (50ms when
	// 0). Subsequent retries back off exponentially with jitter, capped
	// at 64×RetryDelay.
	RetryDelay time.Duration
	// Seed drives the retry jitter; a seeded client replays an identical
	// backoff schedule. 0 derives a seed from the clock.
	Seed uint64

	mu    sync.Mutex
	buf   []Report
	stats ClientStats

	// batchPool recycles flushed batch slices and encodePool the wire
	// encode buffers, so a steady upload stream re-makes neither: enqueue
	// appends into recycled capacity and each upload (a flush or a
	// PostReports) encodes into a warm buffer. Pools (not single fields)
	// because posts from concurrent reporters overlap.
	batchPool  sync.Pool
	encodePool sync.Pool
}

// NewClient builds a client for the given /ingest/batch URL.
func NewClient(url string) *Client {
	return &Client{URL: url, BatchSize: DefaultClientBatch}
}

func (c *Client) batchSize() int {
	if c.BatchSize <= 0 {
		return DefaultClientBatch
	}
	return c.BatchSize
}

// Report enqueues one report, flushing the batch when full. The returned
// error is the flush outcome; enqueueing itself cannot fail.
func (c *Client) Report(r Report) error {
	c.mu.Lock()
	c.stats.Reported++
	c.buf = append(c.buf, r)
	if len(c.buf) < c.batchSize() {
		c.mu.Unlock()
		return nil
	}
	batch := c.buf
	c.buf = c.takeBatchSlice()
	c.mu.Unlock()
	return c.post(batch)
}

// takeBatchSlice returns an empty batch slice, recycled from a completed
// post when one is available. Caller holds c.mu (only for the stats
// consistency of the surrounding code; the pool itself is concurrency
// safe).
func (c *Client) takeBatchSlice() []Report {
	if bp, ok := c.batchPool.Get().(*[]Report); ok {
		return (*bp)[:0]
	}
	return make([]Report, 0, c.batchSize())
}

// recycleBatch returns a posted batch slice to the pool. Entries are
// cleared first so recycled capacity does not pin report chains in
// memory.
func (c *Client) recycleBatch(batch []Report) {
	clear(batch)
	batch = batch[:0]
	c.batchPool.Put(&batch)
}

// Flush uploads any buffered reports.
func (c *Client) Flush() error {
	c.mu.Lock()
	if len(c.buf) == 0 {
		c.mu.Unlock()
		return nil
	}
	batch := c.buf
	c.buf = c.takeBatchSlice()
	c.mu.Unlock()
	return c.post(batch)
}

// post uploads one batch the client buffered itself; its slice goes back
// to the batch pool as soon as it is encoded.
func (c *Client) post(batch []Report) error { return c.upload(batch, true) }

// PostReports uploads one caller-owned batch immediately, bypassing the
// client's buffering: the slice is read, never kept or recycled, so
// callers that manage their own batches (load generators replaying a
// pre-built stream) can reuse it freely.
func (c *Client) PostReports(batch []Report) error {
	if len(batch) == 0 {
		return nil
	}
	return c.upload(batch, false)
}

// upload encodes batch into a pooled wire buffer and delivers it. owned
// says the batch slice is the client's to recycle once encoded; the encode
// buffer is recycled unless a transport error may still be referencing it.
func (c *Client) upload(batch []Report, owned bool) error {
	var scratch []byte
	if bp, ok := c.encodePool.Get().(*[]byte); ok {
		scratch = (*bp)[:0]
	}
	body, err := AppendReports(scratch, batch)
	if owned {
		c.recycleBatch(batch)
	}
	if err != nil {
		c.encodePool.Put(&scratch)
		return fmt.Errorf("ingest: encode batch: %w", err)
	}
	err, anyTransport := c.deliver(body)
	if anyTransport {
		// A transport-failed attempt's HTTP machinery may still briefly
		// reference body even after a later attempt succeeds, so the
		// encode buffer is dropped, not recycled — the next upload
		// re-grows one.
		return err
	}
	body = body[:0]
	c.encodePool.Put(&body)
	return err
}

// deliver runs the retry loop for one encoded batch: transport-level
// failures are retried up to c.Retries times. anyTransport reports
// whether any attempt ended in a transport error, i.e. whether body may
// still be referenced.
func (c *Client) deliver(body []byte) (err error, anyTransport bool) {
	seed := c.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	bo := resilient.NewBackoff(c.RetryDelay, 0, seed)
	var retryable, transport bool
	for attempt := 0; ; attempt++ {
		err, retryable, transport = c.postOnce(body)
		anyTransport = anyTransport || transport
		if err == nil || !retryable || attempt >= c.Retries {
			break
		}
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
		time.Sleep(bo.Next())
	}
	if err != nil {
		c.mu.Lock()
		c.stats.PostErrors++
		c.mu.Unlock()
	}
	return err, anyTransport
}

// postOnce performs one upload round trip. retryable reports whether a
// failure is worth re-sending: a connection error, a response damaged in
// flight (undecodable on a 200 or 5xx), or a 5xx — never a deterministic
// endpoint mismatch (a 404's HTML page fails identically every time) and
// never a decoded verdict. transport is true only when the HTTP client
// returned an error, i.e. only then may it still reference body. Server
// Accepted/Rejected counts fold into the stats only on outcomes that end
// the attempt loop, so a retried batch is never double-counted.
func (c *Client) postOnce(body []byte) (err error, retryable, transport bool) {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	res, status, err := PostBatch(httpc, c.URL, body)
	if status == 0 {
		return fmt.Errorf("ingest: post batch: %w", err), true, true
	}
	c.mu.Lock()
	c.stats.Posts++
	c.mu.Unlock()
	if err != nil {
		// The endpoint answers a BatchResult on 200/400/413/503; anything
		// that does not decode (a 404 from a wrong URL, a proxy error
		// page, a response a hostile wire truncated) is a failed post.
		retryable = status == http.StatusOK || status >= http.StatusInternalServerError
		return fmt.Errorf("ingest: batch response: %w", err), retryable, false
	}
	if status >= http.StatusInternalServerError {
		// The attempt will be re-sent; folding this response's counts
		// would tally the same batch once per retry.
		return fmt.Errorf("ingest: batch post: HTTP %d %s", status, res.Error), true, false
	}
	c.mu.Lock()
	c.stats.Accepted += uint64(res.Accepted)
	c.stats.Rejected += uint64(res.Rejected)
	c.mu.Unlock()
	switch {
	case res.Error != "":
		// Stream-level damage the server itself reported. A decoded
		// verdict is final: the same bytes would be refused again.
		return fmt.Errorf("ingest: server refused stream: %s", res.Error), false, false
	case status != http.StatusOK:
		return fmt.Errorf("ingest: batch post: HTTP %d", status), false, false
	}
	return nil, false, false
}

// PostBatch is the verdict round trip every batch producer shares — Client
// to /ingest/batch, cluster.RouteClient and relaying nodes to
// /cluster/ingest: POST an octet-stream body, decode the BatchResult the
// endpoint answers. status is 0 when the HTTP client itself failed (only
// then may it still reference body); a non-nil err with a status means the
// reply carried no decodable verdict. Retry and relay policy stay with the
// caller.
func PostBatch(hc *http.Client, url string, body []byte) (res BatchResult, status int, err error) {
	resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return res, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res); err != nil {
		return res, resp.StatusCode, fmt.Errorf("undecodable verdict (HTTP %d): %w", resp.StatusCode, err)
	}
	return res, resp.StatusCode, nil
}

// Stats snapshots the uploader accounting.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
