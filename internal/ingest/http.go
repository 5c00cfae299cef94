package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/telemetry"
)

// maxBatchBytes bounds one /ingest/batch request body. At ~1-4 KiB per
// framed report this admits tens of thousands of reports per request.
const maxBatchBytes = 32 << 20

// decodeState is the per-request working set BatchHandler recycles: an
// arena-bound streaming decoder plus the request's observed measurements.
// The arena is reset when the state returns to the pool — the request's
// measurements are committed by then, and anything with a longer lifetime
// (interned hosts, chaincache entries, the sink's own buffers) owns its
// bytes.
type decodeState struct {
	arena *Arena
	dec   *Decoder
	ms    []core.Measurement
	// spans holds the request's decode and observe spans until they are
	// filed in one Tracer.RecordSpans.
	spans []telemetry.TracedSpan
}

var decodePool = sync.Pool{New: func() any {
	a := NewArena()
	return &decodeState{arena: a, dec: NewArenaDecoder(nil, a)}
}}

// getDecodeState arms a pooled state for one request body.
func getDecodeState(body io.Reader) *decodeState {
	st := decodePool.Get().(*decodeState)
	st.dec.Reset(body)
	return st
}

// put retires the request's decode memory: arena slices become invalid
// here, which is safe because every report was either committed (the sink
// copied its measurement) or abandoned with the request.
func (st *decodeState) put() {
	st.arena.Reset()
	clear(st.ms)
	st.ms = st.ms[:0]
	st.spans = st.spans[:0]
	decodePool.Put(st)
}

// BatchResult is the JSON verdict both batch endpoints answer:
// /ingest/batch (reports; how many the collector committed and how many
// it rejected for an unknown host or unparsable chain) and
// /cluster/ingest (measurements; the routing fields below).
type BatchResult struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error,omitempty"`
	// NotOwner reports that the receiving node does not own the batch's
	// hosts (the ring moved, or the node is draining). The batch was NOT
	// applied; cluster.RouteClient re-splits it against Owner. Only
	// /cluster/ingest speaks it — reports are observed on any node.
	NotOwner bool   `json:"not_owner,omitempty"`
	Owner    string `json:"owner,omitempty"`
	OwnerURL string `json:"owner_url,omitempty"`
	// Duplicate marks an ack answered from the node's dedup table: the
	// batch was applied by an earlier attempt whose ack never reached
	// the client. Accepted carries the original count; nothing was
	// re-applied.
	Duplicate bool `json:"duplicate,omitempty"`
}

// BatchHandler serves the binary batch-upload endpoint: POST a wire stream
// (see wire.go) of reports, all attributed to the connection's client IP
// and the collector's campaign label. A request is all-or-nothing and
// commits once: the whole stream is decoded and observed before anything
// reaches storage, so a damaged or oversized stream applies nothing (400 /
// 413) and the client may re-send it; the observed measurements then go to
// the collector's storage in one Deliver, and a commit error answers 503
// with accepted 0. Individually bad reports (unknown host, unparsable
// chain) are counted in Rejected and skipped.
func BatchHandler(col *core.Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		ip := core.ClientIPFromRequest(r)
		// MaxBytesReader (not a silent LimitReader) so an oversized
		// upload surfaces as 413 instead of masquerading as stream
		// corruption — or worse, as a clean EOF that drops the tail.
		body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
		st := getDecodeState(body)
		defer st.put()
		tracer := col.Tracer
		var res BatchResult
		status := http.StatusOK
		for {
			start := stageStart(tracer)
			rep, err := st.dec.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				// Codec-level damage: nothing after this point can be
				// framed, and nothing before it has been delivered.
				res = BatchResult{Error: err.Error()}
				status = http.StatusBadRequest
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					res.Error = fmt.Sprintf("body exceeds %d bytes", maxBatchBytes)
					status = http.StatusRequestEntityTooLarge
				}
				break
			}
			if tracer != nil {
				st.spans = tracer.AppendSpan(st.spans, telemetry.TraceID(rep.Trace), telemetry.StageDecode, start, time.Since(start))
			}
			m, err := col.Observe(ip, rep.Host, rep.ChainDER, col.Campaign, rep.Trace, &st.spans)
			if err != nil {
				res.Rejected++
				continue
			}
			st.ms = append(st.ms, m)
		}
		// Filed before Deliver, so each trace's decode and observe spans
		// precede the shard's queue, wal and store spans.
		tracer.RecordSpans(st.spans)
		if status == http.StatusOK {
			if err := col.Deliver(st.ms); err != nil {
				res.Error = err.Error()
				status = http.StatusServiceUnavailable
			} else {
				res.Accepted = len(st.ms)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(res)
	})
}
