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
// the wire, and a proxied repeat is a whole row of the request's batch (a
// clean one adds 1 to its entry's row's count, and a fold entry when
// traced).
const maxBatchReports = 1 << 16

// decodeState is the per-request working set BatchHandler recycles: an
// arena-bound streaming decoder, the request's batch and its memo. The
// arena is reset when the state returns to the pool — the request's batch
// has been delivered by then, and anything with a longer lifetime
// (interned hosts, chaincache entries, the sink's own buffers) owns its
// bytes.
type decodeState struct {
	arena *Arena
	dec   *Decoder
	// body counts the reads of the request body under dec.
	body  readCounter
	batch core.Batch
	// memo[k-1] is wire entry k's first Observe (at most MaxWireEntries).
	memo []memoSlot
	// traced, decodes and observes hold the request's traced reports'
	// spans and its stage latencies until one FileReports and one
	// ObserveBatch per stage.
	traced            []telemetry.ReportSpans
	decodes, observes telemetry.HistogramBatch
}

// readCounter counts its reader's Read calls: a frame whose decode made
// none came from bytes already buffered.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// memoSlot is a wire entry's first outcome: the index of its row in the
// request's batch, or its error.
type memoSlot struct {
	row int
	err error
}

var decodePool = sync.Pool{New: func() any {
	a := NewArena()
	return &decodeState{arena: a, dec: NewArenaDecoder(nil, a)}
}}

// put retires the request's decode memory: arena slices become invalid
// here, which is safe because the batch was either delivered (the sink
// copied what it keeps) or abandoned with the request. Buffers a request
// past MaxWireEntries reports grew are dropped, not pooled.
func (st *decodeState) put() {
	st.dec.Reset(nil)
	st.body.r = nil
	st.arena.Reset()
	st.batch.Reset(0, 0)
	clear(st.memo)
	st.memo, st.traced = st.memo[:0], st.traced[:0]
	if cap(st.batch.Rows) > MaxWireEntries || cap(st.batch.Folds) > MaxWireEntries || cap(st.traced) > MaxWireEntries {
		st.batch, st.traced = core.Batch{}, nil
	}
	decodePool.Put(st)
}

// observe is col.Observe behind the request's memo, adding the report to
// the request's batch, and says whether the memo answered. One request
// has one client IP, so one country, and one campaign: a repeat of a
// clean entry adds 1 to the entry's row's Count (and, when traced, a
// fold), and a repeat of a proxied one is the entry's row re-stamped
// with its own Time and Trace, since every proxied test is kept (§5.1).
func (st *decodeState) observe(col *core.Collector, ip uint32, rep Report) (repeat bool, err error) {
	k := st.dec.entry - 1
	if k < 0 || k == len(st.memo) {
		m, err := col.Observe(ip, rep.Host, rep.ChainDER, col.Campaign, rep.Trace)
		if err == nil {
			st.batch.Add(&m)
		}
		if k >= 0 {
			st.memo = append(st.memo, memoSlot{len(st.batch.Rows) - 1, err})
		}
		return false, err
	}
	s := &st.memo[k]
	if s.err != nil {
		return true, s.err
	}
	r := &st.batch.Rows[s.row]
	if !st.batch.Tuples[r.Tuple].Obs.Proxied {
		r.Count++
		if rep.Trace != 0 {
			st.batch.AddFold(r.Tuple, rep.Trace)
		}
		return true, nil
	}
	row := *r
	row.Time, row.Trace = col.Stamp(time.Time{}).UnixNano(), rep.Trace
	st.batch.AddRow(row)
	return true, nil
}

// timeFrame adds one report's decode (start to end) and observe (end to
// next) stages, in nanoseconds since the request's clock base at base
// Unix ns, to the request's histogram batches and, when traced, its
// entry to the request record. A report whose host has no authoritative
// chain was never observed.
func (st *decodeState) timeFrame(trace uint64, base, start, end, next int64, err error) {
	st.decodes.Observe(time.Duration(end - start))
	obs := time.Duration(-1)
	if !errors.Is(err, core.ErrNoAuthoritative) {
		obs = time.Duration(next - end)
		st.observes.Observe(obs)
	}
	if trace != 0 {
		st.traced = append(st.traced, telemetry.ReportSpans{ID: telemetry.TraceID(trace), Start: base + start, Decode: time.Duration(end - start), Observe: obs})
	}
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
// reaches storage once: the whole stream is decoded and observed into one
// core.Batch before anything reaches storage, so a damaged stream (400)
// or one past maxBatchBytes or maxBatchReports (413) applies nothing and
// the client may re-send it; the batch then goes to the collector's
// storage in one Deliver, and a delivery error answers 503 with accepted
// 0 (core.BatchCommitter says what an accepted report is promised).
// Individually bad reports (unknown host, unparsable chain) are counted
// in Rejected and skipped. A wire entry is observed once per request.
func BatchHandler(col *core.Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		ip := core.ClientIPFromRequest(r)
		st := decodePool.Get().(*decodeState)
		defer st.put()
		// MaxBytesReader (not a silent LimitReader) so an oversized
		// upload surfaces as 413 instead of masquerading as stream
		// corruption — or worse, as a clean EOF that drops the tail.
		st.body = readCounter{r: http.MaxBytesReader(w, r.Body, maxBatchBytes)}
		st.dec.Reset(&st.body)
		tracer := col.Tracer
		var res BatchResult
		status := http.StatusOK
		// The handler loop's clock is monotonic ns since t0, read only
		// when a frame's decode read the body or an entry was observed:
		// a frame decoded from buffered bytes gets a zero-length decode,
		// and the next reading's span covers it, so the spans still tile
		// the loop.
		t0 := stageStart(tracer)
		base, start, reads := t0.UnixNano(), int64(0), 0
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
			if tracer != nil && st.body.reads != reads {
				end, reads = int64(time.Since(t0)), st.body.reads
			}
			// The observe stage runs from this frame's decode end to the
			// next frame's decode start. A repeat reads no clock: its
			// observe takes 0 ns.
			repeat, err := st.observe(col, ip, rep)
			next := end
			if tracer != nil {
				if !repeat {
					next = int64(time.Since(t0))
				}
				st.timeFrame(rep.Trace, base, start, end, next, err)
			}
			start = next
			if err != nil {
				res.Rejected++
			}
		}
		// Filed before Deliver, so each trace's decode and observe spans
		// precede the shard's queue, wal and store spans.
		tracer.ObserveBatch(telemetry.StageDecode, &st.decodes)
		tracer.ObserveBatch(telemetry.StageObserve, &st.observes)
		tracer.FileReports(st.traced)
		if status == http.StatusOK {
			if err := col.Deliver(&st.batch); err != nil {
				res.Error = err.Error()
				status = http.StatusServiceUnavailable
			} else {
				res.Accepted = int(st.batch.Count())
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(res)
	})
}
