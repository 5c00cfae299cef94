package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/x509util"
)

// Sink receives completed measurements. Implementations must be safe for
// concurrent use; the study store (internal/store) is the standard one.
type Sink interface {
	Ingest(Measurement)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Measurement)

// Ingest calls f(m).
func (f SinkFunc) Ingest(m Measurement) { f(m) }

// Collector is the reporting server: it knows the authoritative chain for
// every probe host, and turns each uploaded chain into a Measurement
// ("The server then compares the certificate received with the original it
// sent. A mismatch indicates the presence of a TLS proxy", §3.1).
type Collector struct {
	// Classifier drives issuer classification; required.
	Classifier *classify.Classifier
	// Geo resolves client IPs to countries; optional (Country stays "").
	Geo *geo.DB
	// Sink receives every successful measurement; required.
	Sink Sink
	// Clock stamps measurements (time.Now when nil).
	Clock func() time.Time
	// Campaign labels measurements ingested via HTTP (the ad campaign the
	// deployment ran under).
	Campaign string
	// Cache, when non-nil, memoizes derived observations by
	// (host, authoritative-chain, observed-chain) fingerprint, so the
	// report hot path parses and classifies each distinct chain once
	// instead of once per report. Safe to share across collectors; the
	// key covers every Observe input, so a shared cache never leaks an
	// observation across differing authoritative chains.
	Cache *ObservationCache
	// Tracer, when non-nil, records observe-stage latency and per-trace
	// spans for reports that carry a trace ID. Nil costs one branch.
	Tracer *telemetry.Tracer

	// authoritative is a copy-on-write map: readers load the current
	// snapshot without locking (Ingest runs millions of times per
	// campaign and must never contend with registration), writers copy
	// under mu and swap the pointer.
	mu            sync.Mutex
	authoritative atomic.Pointer[map[string][][]byte]
}

// NewCollector constructs a collector with an empty authoritative set.
func NewCollector(cl *classify.Classifier, g *geo.DB, sink Sink) *Collector {
	c := &Collector{
		Classifier: cl,
		Geo:        g,
		Sink:       sink,
	}
	empty := make(map[string][][]byte)
	c.authoritative.Store(&empty)
	return c
}

// SetAuthoritative registers the true chain for host. The study operator
// obtains these out of band (they run the servers, or probe them from a
// trusted vantage point). Registration copies the snapshot, so it is
// O(hosts) — cheap against the per-measurement read rate it buys
// lock-free.
func (c *Collector) SetAuthoritative(host string, chainDER [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snapshot()
	next := make(map[string][][]byte, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[host] = chainDER
	c.authoritative.Store(&next)
}

// snapshot returns the current authoritative map (never nil, even on a
// zero-value Collector).
func (c *Collector) snapshot() map[string][][]byte {
	if m := c.authoritative.Load(); m != nil {
		return *m
	}
	return nil
}

// BatchCommitter is the batch side of a Sink: storage that takes a whole
// request's batch in one call and says whether that failed. The HTTP
// intake (ServeHTTP, ingest.BatchHandler) acks a request only after
// Deliver returns nil, which means the batch is committed. The batch is
// lent for the call; an implementation copies what it keeps.
type BatchCommitter interface {
	Deliver(b *Batch) error
}

// Ingest processes one report that arrived by any transport: the client's
// IP, the probed host, and the captured chain. It returns the derived
// measurement after delivering it to the sink.
func (c *Collector) Ingest(clientIP uint32, host string, observedDER [][]byte, campaign string) (Measurement, error) {
	return c.IngestTraced(clientIP, host, observedDER, campaign, 0)
}

// IngestTraced is Ingest carrying the report's telemetry trace ID: Observe,
// timed into the Tracer as an observe span, then the sink's one-at-a-time
// Ingest. A zero trace (and/or nil Tracer) degrades to plain Ingest.
func (c *Collector) IngestTraced(clientIP uint32, host string, observedDER [][]byte, campaign string, trace uint64) (Measurement, error) {
	m, err := c.observeTimed(clientIP, host, observedDER, campaign, trace)
	if err != nil {
		return Measurement{}, err
	}
	c.Sink.Ingest(m)
	return m, nil
}

// observeTimed is Observe with its observe stage recorded by the
// Tracer (a span when trace is nonzero). An unknown host is not timed.
func (c *Collector) observeTimed(clientIP uint32, host string, observedDER [][]byte, campaign string, trace uint64) (Measurement, error) {
	if c.Tracer == nil {
		return c.Observe(clientIP, host, observedDER, campaign, trace)
	}
	start := time.Now()
	m, err := c.Observe(clientIP, host, observedDER, campaign, trace)
	if !errors.Is(err, ErrNoAuthoritative) {
		c.Tracer.Record(telemetry.TraceID(trace), telemetry.StageObserve, start, time.Since(start))
	}
	return m, err
}

// Observe derives the measurement for one report without delivering it
// anywhere, stamped with the trace ID so downstream stages can keep the
// trace alive. It reads no clock for the tracer: IngestTraced and the
// PEM intake time it through observeTimed, ingest.BatchHandler with the
// clock reads that bracket its frames.
func (c *Collector) Observe(clientIP uint32, host string, observedDER [][]byte, campaign string, trace uint64) (Measurement, error) {
	auth, ok := c.snapshot()[host]
	if !ok {
		return Measurement{}, fmt.Errorf("core: %w for %q", ErrNoAuthoritative, host)
	}
	obs, err := ObserveCached(c.Cache, host, auth, observedDER, c.Classifier)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{
		Time:     c.Stamp(time.Time{}),
		ClientIP: clientIP,
		Host:     host,
		Campaign: campaign,
		Obs:      obs,
		Trace:    trace,
	}
	if h, ok := hostdb.HostByName(host); ok {
		m.HostCategory = h.Category
	}
	if c.Geo != nil {
		if country, ok := c.Geo.LookupUint32(clientIP); ok {
			m.Country = country.Code
		}
	}
	return m, nil
}

// ErrNoAuthoritative is Observe's rejection of a host with no
// authoritative chain; its observe stage is never timed.
var ErrNoAuthoritative = errors.New("no authoritative chain")

// Stamp is the time a measurement observed at at is stamped with: the
// Clock's reading when set, else at (time.Now when zero), wall clock only
// — the monotonic reading Before/Equal prefer could order a live store's
// records differently from its WAL replay, which keeps only the wall one.
func (c *Collector) Stamp(at time.Time) time.Time {
	if c.Clock != nil {
		return c.Clock().Round(0)
	}
	if at.IsZero() {
		at = time.Now()
	}
	return at.Round(0)
}

// Deliver hands one request's observed batch to the collector's
// storage: in one call when the Sink is a BatchCommitter, otherwise one
// Ingest per row, of that row's measurement (those sinks cannot fail).
func (c *Collector) Deliver(b *Batch) error {
	if bc, ok := c.Sink.(BatchCommitter); ok {
		return bc.Deliver(b)
	}
	for i := range b.Rows {
		c.Sink.Ingest(b.Measurement(i))
	}
	return nil
}

// maxReportBytes bounds one uploaded report; hostile clients exist.
const maxReportBytes = 1 << 20

// ServeHTTP implements the report intake endpoint: POST with the probed
// host in ?host= and concatenated PEM in the body.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	host := r.URL.Query().Get("host")
	if host == "" {
		http.Error(w, "missing host parameter", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReportBytes+1))
	if err != nil || len(body) > maxReportBytes {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	chainDER, err := x509util.DecodeChainPEM(body)
	if err != nil {
		http.Error(w, "bad PEM", http.StatusBadRequest)
		return
	}
	m, err := c.observeTimed(ClientIPFromRequest(r), host, chainDER, c.Campaign, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var b Batch
	b.Add(&m)
	if err := c.Deliver(&b); err != nil {
		// Not committed: the client may re-send.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// ClientIPFromRequest extracts the IPv4 peer address (0 when unavailable),
// which the paper recorded alongside every certificate (§4). It is shared
// with the batch intake endpoint (internal/ingest).
func ClientIPFromRequest(r *http.Request) uint32 {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return 0
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v4)
}
