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

// maxBatchBytes bounds one /ingest/batch request body: tens of thousands
// of reports even if every one carries its own ~1-4 KiB chain.
const maxBatchBytes = 32 << 20

// maxBatchReports bounds one request's reports: a repeat is two bytes on
// the wire but a whole measurement until Deliver.
const maxBatchReports = 1 << 16

// decodeState is the per-request working set BatchHandler recycles: an
// arena-bound streaming decoder, the request's measurements and its memo.
// The arena is reset when the state returns to the pool — the request's
// measurements are committed by then, and anything with a longer lifetime
// (interned hosts, chaincache entries, the sink's own buffers) owns its
// bytes.
type decodeState struct {
	arena *Arena
	dec   *Decoder
	ms    []core.Measurement
	// memo[k-1] is wire entry k's first Observe (at most MaxWireEntries).
	memo []memoSlot
	// spans, decodes and observes hold the request's decode and observe
	// spans and latencies until one RecordSpans and ObserveBatch each.
	spans             []telemetry.TracedSpan
	decodes, observes telemetry.HistogramBatch
}

type memoSlot struct {
	m   core.Measurement
	err error
}

var decodePool = sync.Pool{New: func() any {
	a := NewArena()
	return &decodeState{arena: a, dec: NewArenaDecoder(nil, a)}
}}

// put retires the request's decode memory: arena slices become invalid
// here, which is safe because every report was either committed (the sink
// copied its measurement) or abandoned with the request. Buffers a request
// past MaxWireEntries reports grew are dropped, not pooled.
func (st *decodeState) put() {
	st.dec.Reset(nil)
	st.arena.Reset()
	clear(st.ms)
	clear(st.memo)
	st.ms, st.memo, st.spans = st.ms[:0], st.memo[:0], st.spans[:0]
	if cap(st.ms) > MaxWireEntries || cap(st.spans) > 2*MaxWireEntries {
		st.ms, st.spans = nil, nil
	}
	decodePool.Put(st)
}

// observe is col.Observe behind the request's memo, and says whether the
// memo answered. A repeat copies its entry's first outcome re-stamped with
// its own Time and Trace: the rest is a function of (request, host,
// chain). Where Observe would have timed it (any host but an unknown one),
// a repeat's observe stage takes 0 ns at at.
func (st *decodeState) observe(col *core.Collector, ip uint32, rep Report, at time.Time) (m core.Measurement, repeat bool, err error) {
	k := st.dec.entry - 1
	if k < 0 || k == len(st.memo) {
		m, err = col.Observe(ip, rep.Host, rep.ChainDER, col.Campaign, rep.Trace, &st.spans)
		if k >= 0 {
			st.memo = append(st.memo, memoSlot{m, err})
		}
		return m, false, err
	}
	s := &st.memo[k]
	if col.Tracer != nil && !errors.Is(s.err, core.ErrNoAuthoritative) {
		st.observes.Observe(0)
		st.spans = telemetry.AppendTraced(st.spans, telemetry.TraceID(rep.Trace), telemetry.StageObserve, at, 0)
	}
	if s.err != nil {
		return core.Measurement{}, true, s.err
	}
	m = s.m
	m.Time, m.Trace = col.Stamp(at), rep.Trace
	return m, true, nil
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
// reaches storage, so a damaged stream (400) or one past maxBatchBytes or
// maxBatchReports (413) applies nothing and the client may re-send it; the
// observed measurements then go to the collector's storage in one Deliver,
// and a commit error answers 503 with accepted 0. Individually bad reports
// (unknown host, unparsable chain) are counted in Rejected and skipped. A
// wire entry is observed once per request.
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
		st := decodePool.Get().(*decodeState)
		st.dec.Reset(body)
		defer st.put()
		tracer := col.Tracer
		var res BatchResult
		status := http.StatusOK
		start := stageStart(tracer)
		for n := 1; ; n++ {
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
			if n > maxBatchReports {
				res = BatchResult{Error: fmt.Sprintf("more than %d reports in one request", maxBatchReports)}
				status = http.StatusRequestEntityTooLarge
				break
			}
			end := start
			if tracer != nil {
				d := time.Since(start) // one monotonic read, unlike Now
				end = start.Add(d)
				st.decodes.Observe(d)
				st.spans = telemetry.AppendTraced(st.spans, telemetry.TraceID(rep.Trace), telemetry.StageDecode, start, d)
			}
			// A repeat reads no clock: its observe span, time stamp and
			// the next frame's decode start at this frame's decode end.
			m, repeat, err := st.observe(col, ip, rep, end)
			if start = end; !repeat {
				start = stageStart(tracer)
			}
			if err != nil {
				res.Rejected++
				continue
			}
			st.ms = append(st.ms, m)
		}
		// Filed before Deliver, so each trace's decode and observe spans
		// precede the shard's queue, wal and store spans.
		tracer.ObserveBatch(telemetry.StageDecode, &st.decodes)
		tracer.ObserveBatch(telemetry.StageObserve, &st.observes)
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
