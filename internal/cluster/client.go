package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/ingest"
	"tlsfof/internal/resilient"
	"tlsfof/internal/stats"
	"tlsfof/internal/telemetry"
)

// DefaultRouteBatch is measurements buffered per owner before a flush.
const DefaultRouteBatch = 512

const (
	// retryCapFactor caps one backoff sleep at this multiple of
	// RouteConfig.RetryDelay.
	retryCapFactor = 8
	// breakerThreshold is the consecutive direct-delivery failures that
	// open a peer's breaker.
	breakerThreshold = 3
)

// RouteStats is the router's delivery accounting: with sync-acked nodes,
// Delivered + buffered == ingested, and Lost must stay zero.
type RouteStats struct {
	Ingested        uint64 `json:"ingested"`
	Delivered       uint64 `json:"delivered"`
	Batches         uint64 `json:"batches"`
	Retries         uint64 `json:"retries"`
	NotOwnerRetries uint64 `json:"not_owner_retries"`
	Rerouted        uint64 `json:"rerouted"`
	DeadMarked      uint64 `json:"dead_marked"`
	Lost            uint64 `json:"lost"`
	// BreakerOpens counts per-peer circuit-breaker trips: the router
	// stopped hammering a peer that kept failing and went straight to
	// the relay path until the cooldown probe succeeded.
	BreakerOpens uint64 `json:"breaker_opens"`
	// Relayed counts batches delivered through a reachable peer because
	// the direct link to the owner was down while the owner itself was
	// not provably dead.
	Relayed uint64 `json:"relayed"`
	// DuplicateAcks counts acks answered from the owner's dedup table: a
	// previous attempt applied the batch but its ack died on the wire
	// (the asymmetric-partition window). Delivered counts such a batch
	// exactly once — on this ack, the only one the router ever saw.
	DuplicateAcks uint64 `json:"duplicate_acks"`
}

// RouteConfig configures a RouteClient.
type RouteConfig struct {
	// Members is the router's cluster view. The client updates it (marks
	// nodes dead) when delivery proves a node gone.
	Members *Membership
	// HTTPClient defaults to a split-deadline client
	// (resilient.SplitTimeoutClient with its defaults).
	HTTPClient *http.Client
	// BatchSize is per-owner buffering (default DefaultRouteBatch, at
	// most core.MaxBatchRows: the rows one ingest body holds).
	BatchSize int
	// Retries is transport-level retries per batch against the direct
	// owner link before the relay path is tried (default 2).
	Retries int
	// RetryDelay is the backoff base between transport retries (default
	// 50ms). Actual sleeps are capped jittered exponential: attempt k
	// draws from [d/2, d) where d = min(8×RetryDelay, RetryDelay<<k).
	RetryDelay time.Duration
	// BreakerCooldown is how long a peer's breaker, opened by three
	// consecutive direct-delivery failures, refuses direct attempts
	// before admitting a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Seed drives batch-ID generation and retry jitter; a seeded router
	// replays an identical schedule. 0 derives a seed from the clock.
	Seed uint64
	// Registry, when set, exposes the router's accounting as metrics
	// (route_* gauges mirroring RouteStats).
	Registry *telemetry.Registry
}

// RouteClient is a core.Sink (buffered Ingest + Flush) and a
// core.BatchCommitter (synchronous Deliver) that routes measurements to
// the cluster node owning each host. It buffers one batch per owner,
// reroutes on not-owner verdicts (a draining or stale target names the
// new owner) and on node death, and records delivery accounting strong
// enough for the kill test to assert zero loss.
//
// Delivery is self-healing: every batch carries a dedup ID so retries
// after a lost ack cannot double count; per-peer circuit breakers stop
// hammering a failing direct link; and when the direct link to a live
// owner is cut the batch relays through a reachable peer. A node is
// marked dead only after the direct path AND every relay path failed —
// an unreachable-to-us-but-alive node keeps its shards.
//
// Ingest and Flush serialize on one lock — use one RouteClient per
// producing goroutine or accept the serialization.
type RouteClient struct {
	cfg RouteConfig

	mu   sync.Mutex
	bufs map[string]*core.Batch
	// spare holds flushed owner batches for reuse. A batch gets here only
	// once its flush has finished with it — reroute reads the flushed
	// batch's rows while bufferLocked fills live ones, so the two must
	// never be one batch.
	spare    []*core.Batch
	stats    RouteStats
	err      error
	rng      *stats.RNG
	breakers map[string]*resilient.Breaker
}

// NewRouteClient builds a router over cfg.Members (required).
func NewRouteClient(cfg RouteConfig) (*RouteClient, error) {
	if cfg.Members == nil {
		return nil, fmt.Errorf("cluster: RouteConfig.Members required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = resilient.SplitTimeoutClient(0, 0, nil)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultRouteBatch
	}
	cfg.BatchSize = min(cfg.BatchSize, core.MaxBatchRows)
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 50 * time.Millisecond
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(time.Now().UnixNano())
	}
	rc := &RouteClient{
		cfg:      cfg,
		bufs:     make(map[string]*core.Batch),
		rng:      stats.NewRNG(cfg.Seed),
		breakers: make(map[string]*resilient.Breaker),
	}
	if cfg.Registry != nil {
		rc.mountMetrics(cfg.Registry)
	}
	return rc, nil
}

func (rc *RouteClient) mountMetrics(reg *telemetry.Registry) {
	field := func(name, help string, f func(RouteStats) uint64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(f(rc.Stats())) })
	}
	field("route_delivered_total", "measurements acked by their owning node", func(s RouteStats) uint64 { return s.Delivered })
	field("route_retries_total", "transport-level delivery retries", func(s RouteStats) uint64 { return s.Retries })
	field("route_rerouted_total", "measurements re-split after a failed or disowned delivery", func(s RouteStats) uint64 { return s.Rerouted })
	field("route_breaker_opens_total", "per-peer circuit-breaker trips", func(s RouteStats) uint64 { return s.BreakerOpens })
	field("route_relayed_total", "batches delivered through a relay peer", func(s RouteStats) uint64 { return s.Relayed })
	field("route_duplicate_acks_total", "batch acks answered from an owner's dedup table", func(s RouteStats) uint64 { return s.DuplicateAcks })
	field("route_dead_marked_total", "peers this router declared dead", func(s RouteStats) uint64 { return s.DeadMarked })
	field("route_lost_total", "measurements the router could not deliver anywhere", func(s RouteStats) uint64 { return s.Lost })
}

// breakerFor returns the peer's breaker, creating it closed.
func (rc *RouteClient) breakerFor(id string) *resilient.Breaker {
	br := rc.breakers[id]
	if br == nil {
		br = resilient.NewBreaker(breakerThreshold, rc.cfg.BreakerCooldown, nil)
		rc.breakers[id] = br
	}
	return br
}

// Ingest buffers one measurement toward its owning node, flushing the
// owner's batch when full. Satisfies core.Sink.
func (rc *RouteClient) Ingest(m core.Measurement) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.stats.Ingested++
	if id, b := rc.bufferLocked(m.Host, 1, 0); b != nil {
		b.Add(&m)
		if len(b.Rows) >= rc.cfg.BatchSize {
			rc.flushOwnerLocked(id, 1)
		}
	}
}

// enqueueLocked buffers src's row r toward its owning node, flushing the
// owner's batch when full.
func (rc *RouteClient) enqueueLocked(src *core.Batch, r core.Row, depth int) {
	if id, b := rc.bufferLocked(src.Tuples[r.Tuple].Host, r.Count, depth); b != nil {
		b.AddFrom(src, r)
		if len(b.Rows) >= rc.cfg.BatchSize {
			rc.flushOwnerLocked(id, depth+1)
		}
	}
}

// bufferLocked returns the batch buffering host's rows toward its
// owner, or nil (the row's count measurements lost and counted) when
// host has no alive owner or has been rerouted too often.
func (rc *RouteClient) bufferLocked(host string, count uint32, depth int) (string, *core.Batch) {
	if depth > 8 {
		rc.fail(uint64(count), fmt.Errorf("cluster: reroute depth exhausted for host %s", host))
		return "", nil
	}
	owner, ok := rc.cfg.Members.Owner(host)
	if !ok {
		rc.fail(uint64(count), fmt.Errorf("cluster: no alive owner for host %s", host))
		return "", nil
	}
	b := rc.bufs[owner.ID]
	if b == nil {
		if n := len(rc.spare); n > 0 {
			b, rc.spare = rc.spare[n-1], rc.spare[:n-1]
		} else {
			b = new(core.Batch)
		}
		rc.bufs[owner.ID] = b
	}
	return owner.ID, b
}

// Flush delivers every buffered batch and returns the first error the
// router has ever hit (delivery gaps are never silent).
func (rc *RouteClient) Flush() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.flushAllLocked()
	return rc.err
}

// flushAllLocked delivers until no owner buffer is left. A reroute
// re-adds owners to bufs while a range over it runs, and the range may
// skip them, so it sweeps again; each sweep reroutes one level deeper,
// so enqueueLocked's depth bound ends the loop.
func (rc *RouteClient) flushAllLocked() {
	for depth := 0; len(rc.bufs) > 0; depth++ {
		for id := range rc.bufs {
			rc.flushOwnerLocked(id, depth)
		}
	}
}

// Deliver routes one batch and returns once every owner has acked its
// share: the synchronous form of Ingest + Flush a reportd node commits
// each request through (core.BatchCommitter). Unlike Flush's sticky error,
// the error covers this call only — it is non-nil exactly when some of
// this batch was lost, and a later call starts clean. A partial failure
// leaves the delivered shares committed.
func (rc *RouteClient) Deliver(b *core.Batch) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	lost, count := rc.stats.Lost, b.Count()
	rc.stats.Ingested += count
	for _, r := range b.Rows {
		rc.enqueueLocked(b, r, 0)
	}
	rc.flushAllLocked()
	if n := rc.stats.Lost - lost; n > 0 {
		return fmt.Errorf("cluster: %d of %d measurements not delivered", n, count)
	}
	return nil
}

// Err returns the sticky first error.
func (rc *RouteClient) Err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.err
}

// Stats returns a copy of the delivery accounting.
func (rc *RouteClient) Stats() RouteStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

// fail counts n measurements lost and keeps the first error.
func (rc *RouteClient) fail(n uint64, err error) {
	rc.stats.Lost += n
	if rc.err == nil {
		rc.err = err
	}
	slog.Warn("route: batch lost", "err", err)
}

// flushOwnerLocked delivers one owner's buffered batch, handling the
// three verdicts: accepted; not-owner (re-split against the current
// ring — the membership may have moved on since the batch buffered);
// transport death (mark the node dead, re-split). Re-split measurements
// re-enter through enqueueLocked, so every hop re-consults the ring.
func (rc *RouteClient) flushOwnerLocked(id string, depth int) {
	batch := rc.bufs[id]
	delete(rc.bufs, id)
	if batch == nil {
		return
	}
	defer func() {
		batch.Reset(0, 0)
		rc.spare = append(rc.spare, batch)
	}()
	reroute := func(why string) {
		n := batch.Count()
		rc.stats.Rerouted += n
		slog.Info(fmt.Sprintf("route: rerouting %d measurements (%s)", n, why), "peer", id)
		for _, r := range batch.Rows {
			rc.enqueueLocked(batch, r, depth+1)
		}
	}
	member, ok := rc.cfg.Members.Get(id)
	if !ok || member.State != Alive {
		reroute("no longer alive")
		return
	}
	res, err := rc.deliverBatch(member, batch)
	switch {
	case err != nil:
		// Direct AND relay delivery failed: from everywhere we can reach,
		// the node is gone. Declare it dead so the ring moves on, then
		// re-split. With sync-acked ingest an undelivered batch never
		// touched the dead node's WAL, so the retry cannot double count.
		if rc.cfg.Members.MarkDead(id) {
			rc.stats.DeadMarked++
			slog.Warn("route: marked dead", "peer", id, "epoch", rc.cfg.Members.Epoch(), "err", err)
		}
		reroute("delivery failed")
	case res.NotOwner:
		// The node disowns the batch under its own view (draining, or it
		// saw a death we have not). Fold that into our view — otherwise
		// the re-split consults our stale ring and targets the same node
		// forever.
		rc.stats.NotOwnerRetries++
		rc.cfg.Members.MarkDraining(id)
		reroute(fmt.Sprintf("not owner, moved to %s", res.Owner))
	case res.Error != "":
		n := batch.Count()
		rc.fail(n, fmt.Errorf("cluster: node %s rejected a batch of %d: %s", id, n, res.Error))
	default:
		if res.Duplicate {
			rc.stats.DuplicateAcks++
		}
		rc.stats.Delivered += uint64(res.Accepted)
		rc.stats.Batches++
		if res.Owner != "" && res.Owner != id {
			// A relay peer applied the batch as owner: in its fresher view
			// our target no longer owns anything. Fold that in — the data
			// is safe where it landed, and future batches should go
			// straight to the real owner instead of relaying forever.
			if rc.cfg.Members.MarkDead(id) {
				rc.stats.DeadMarked++
				slog.Warn("route: marked dead, relay peer "+res.Owner+" owns its arcs", "peer", id, "epoch", rc.cfg.Members.Epoch())
			}
		}
	}
}

// deliverBatch pushes one batch to its owner: the direct link first
// (breaker permitting, with backoff retries), then relayed through each
// reachable alive peer. The batch ID makes the whole sequence
// idempotent — whichever path lands first wins and every other arrival
// is answered from the owner's dedup table.
func (rc *RouteClient) deliverBatch(member Member, b *core.Batch) (ingest.BatchResult, error) {
	b.ID = rc.nextBatchID()
	// Not reused: the transport may still be reading a request body after
	// an early error response. The encoder sizes it from the batch: 16
	// bytes a row plus the tuple and country tables, about 18 bytes a
	// study-2 measurement.
	body := b.AppendTo(nil)
	br := rc.breakerFor(member.ID)
	var directErr error
	if br.Allow() {
		res, err := rc.postBody(member, body, false, rc.cfg.Retries)
		if err == nil {
			br.Success()
			return res, nil
		}
		before := br.Opens()
		br.Failure()
		rc.stats.BreakerOpens += br.Opens() - before
		directErr = err
	} else {
		directErr = fmt.Errorf("cluster: breaker open for %s", member.ID)
	}
	// The direct link is down but that proves nothing about the node —
	// the fault may be our link. Triangle-route through peers that can
	// still hear us; the owner's verdict travels back verbatim.
	for _, peer := range rc.cfg.Members.Members() {
		if peer.ID == member.ID || peer.State != Alive {
			continue
		}
		res, err := rc.postBody(peer, body, true, 0)
		if err != nil {
			continue // this relay path is down too; try the next peer
		}
		rc.stats.Relayed++
		slog.Info("route: relayed batch via "+peer.ID, "peer", member.ID)
		return res, nil
	}
	return ingest.BatchResult{}, directErr
}

// postBody sends one encoded batch with up to retries backoff-spaced
// retries. A non-2xx status or connection error after the retry budget
// returns an error; decoded verdicts (including not-owner) return
// normally. Relay requests ask the target to forward to the true owner.
func (rc *RouteClient) postBody(member Member, body []byte, relay bool, retries int) (ingest.BatchResult, error) {
	url := member.URL + "/cluster/ingest"
	if relay {
		url += "?relay=1"
	}
	bo := resilient.NewBackoff(rc.cfg.RetryDelay, retryCapFactor*rc.cfg.RetryDelay, rc.rng.Uint64())
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			rc.stats.Retries++
			time.Sleep(bo.Next())
		}
		res, status, err := ingest.PostBatch(rc.cfg.HTTPClient, url, body)
		if status == http.StatusOK && err == nil {
			return res, nil
		}
		if status == http.StatusBadRequest {
			// The node decoded our batch and refused it wholesale; a
			// retry cannot fix an encoding problem.
			return res, nil
		}
		if err == nil {
			err = fmt.Errorf("cluster: %s: HTTP %d", member.URL, status)
		}
		lastErr = err
	}
	return ingest.BatchResult{}, lastErr
}

// nextBatchID draws a non-zero dedup ID from the router's seeded RNG.
func (rc *RouteClient) nextBatchID() uint64 {
	for {
		if id := rc.rng.Uint64(); id != 0 {
			return id
		}
	}
}
