package fleet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlsfof/internal/cluster"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
)

// maxPendingMarks bounds the re-broadcast queue; beyond it the oldest
// mark is dropped (and logged) rather than growing without bound.
const maxPendingMarks = 256

// replicaHedge is how long a replica fetch waits on one survivor before
// racing the next.
const replicaHedge = 2 * time.Second

// mark is one undelivered membership fact: peer has not yet acked that
// subject is dead/draining.
type mark struct {
	kind    string // "dead" or "draining"
	subject string
	peer    string
}

// Orchestrator drives a cluster from outside it. Members, HTTP and
// Scorer are required. Safe for concurrent use.
type Orchestrator struct {
	// Members is the orchestrator's own view of the cluster; a mark lands
	// here before it is broadcast.
	Members *cluster.Membership
	// HTTP carries every mark, health probe and merge fetch.
	HTTP *http.Client
	// Scorer turns each member's health samples into a verdict.
	Scorer *cluster.Scorer

	mu      sync.Mutex
	pending []mark
	// prevMetrics holds each node's last-scraped degradation counters so
	// health samples carry deltas, not lifetime totals.
	prevMetrics map[string]map[string]float64
}

// post fires one control POST, returning any transport or status error.
func (o *Orchestrator) post(url string) error {
	resp, err := o.HTTP.Post(url, "", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// markURL renders the control endpoint for one membership mark.
func (o *Orchestrator) markURL(m mark) (string, bool) {
	peer, ok := o.Members.Get(m.peer)
	if !ok {
		return "", false
	}
	return peer.URL + "/cluster/" + m.kind + "?node=" + m.subject, true
}

// enqueueMark queues an undelivered mark for re-broadcast.
func (o *Orchestrator) enqueueMark(m mark) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.pending) >= maxPendingMarks {
		old := o.pending[0]
		slog.Warn("mark queue full; dropped the oldest "+old.kind+"-mark", "node", old.subject, "peer", old.peer)
		o.pending = o.pending[1:]
	}
	o.pending = append(o.pending, m)
}

// broadcastMark tells every peer that is not dead a membership fact. A
// draining peer counts: it still follows its replica sources, and its
// follower of a dead node seals only once the node hears of the death —
// until then no survivor can serve that node's replica. A peer that
// cannot be reached right now gets the mark queued: membership facts
// must eventually land everywhere, or routed batches ping-pong between
// the orchestrator's view and a stale peer's forever.
func (o *Orchestrator) broadcastMark(kind, subject string) {
	for _, m := range o.Members.Members() {
		if m.ID == subject || m.State == cluster.Dead {
			continue
		}
		mk := mark{kind: kind, subject: subject, peer: m.ID}
		url, _ := o.markURL(mk)
		if err := o.post(url); err != nil {
			slog.Info(kind+"-mark missed; queued for re-broadcast", "node", subject, "peer", m.ID, "err", err)
			o.enqueueMark(mk)
		}
	}
}

// RedeliverMarks gives every queued mark one more attempt. A mark whose
// peer has since died is dropped — that peer's view no longer matters;
// one that fails again goes back on the queue.
func (o *Orchestrator) RedeliverMarks() {
	o.mu.Lock()
	batch := o.pending
	o.pending = nil
	o.mu.Unlock()
	for _, mk := range batch {
		if peer, ok := o.Members.Get(mk.peer); !ok || peer.State == cluster.Dead {
			continue
		}
		url, ok := o.markURL(mk)
		if !ok {
			continue
		}
		if err := o.post(url); err != nil {
			o.enqueueMark(mk)
			continue
		}
		slog.Info("re-broadcast "+mk.kind+"-mark delivered", "node", mk.subject, "peer", mk.peer)
	}
}

// DeclareDead marks id dead in the orchestrator's view and tells every
// peer that is not dead.
func (o *Orchestrator) DeclareDead(id string) {
	o.Members.MarkDead(id)
	o.broadcastMark("dead", id)
	slog.Warn("declared dead to the fleet", "node", id, "epoch", o.Members.Epoch())
}

// Drain drains id: the broadcast first, then the node itself. In that
// order the window between the two is benign — peers already accept
// id's arcs as the successors, and id still accepts whatever a stale
// router sends it. Draining the node first opens a window in which id
// disowns a batch that every peer bounces straight back to it. A peer
// that misses the broadcast is queued like any mark; the error reports
// an unknown id or a leaver that refused.
func (o *Orchestrator) Drain(id string) error {
	m, ok := o.Members.Get(id)
	if !ok {
		return fmt.Errorf("fleet: cannot drain unknown node %q", id)
	}
	o.Members.MarkDraining(id)
	o.broadcastMark("draining", id)
	if err := o.post(m.URL + "/cluster/drain"); err != nil {
		return fmt.Errorf("fleet: drain of %s: %w", id, err)
	}
	slog.Info("drain requested", "node", id, "epoch", o.Members.Epoch())
	return nil
}

// degradationCounters are the self-reported metrics a health round
// folds into suspicion: a node acking in degraded mode or failing WAL
// writes is in trouble even while its status endpoint answers quickly.
var degradationCounters = []string{"repl_ack_timeouts_total", "cluster_wal_errors_total"}

// scrapeDegradation reads a node's /metrics (Prometheus text form) and
// returns the degradation counters' increase since the last scrape.
func (o *Orchestrator) scrapeDegradation(m cluster.Member) (ackDelta, walDelta uint64) {
	resp, err := o.HTTP.Get(m.URL + "/metrics?format=prometheus")
	if err != nil {
		return 0, 0 // the status probe already judged reachability
	}
	defer resp.Body.Close()
	cur := make(map[string]float64, len(degradationCounters))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		for _, want := range degradationCounters {
			if name == want {
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					cur[name] = v
				}
			}
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.prevMetrics == nil {
		o.prevMetrics = make(map[string]map[string]float64)
	}
	prev := o.prevMetrics[m.ID]
	o.prevMetrics[m.ID] = cur
	delta := func(name string) uint64 {
		d := cur[name] - prev[name]
		if prev == nil || d <= 0 {
			return 0
		}
		return uint64(d)
	}
	return delta("repl_ack_timeouts_total"), delta("cluster_wal_errors_total")
}

// HealthRound polls every member that is not dead once: its
// /cluster/status outcome and round trip, and its self-reported
// degradation deltas, scored by the Scorer. Only a Dead verdict —
// sustained hard failure, never latency or flap — triggers the death
// broadcast.
func (o *Orchestrator) HealthRound() {
	for _, m := range o.Members.Members() {
		if m.State == cluster.Dead {
			continue
		}
		start := time.Now()
		resp, err := o.HTTP.Get(m.URL + "/cluster/status")
		rtt := time.Since(start)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		smp := cluster.Sample{Err: err != nil, RTT: rtt}
		if err == nil {
			smp.AckTimeouts, smp.WALErrors = o.scrapeDegradation(m)
		}
		was := o.Scorer.Verdict(m.ID)
		verdict := o.Scorer.Observe(m.ID, smp)
		if verdict != was {
			slog.Info(fmt.Sprintf("health %s -> %s (score %.2f)", was, verdict, o.Scorer.Score(m.ID)), "node", m.ID)
		}
		if verdict == cluster.DeadVerdict {
			o.DeclareDead(m.ID)
		}
	}
}

// Run ticks HealthRound and RedeliverMarks every interval, each on its
// own loop so a slow health round never holds up a mark, until stop
// closes. It returns once both loops have ended and every queued mark
// has had one last attempt.
func (o *Orchestrator) Run(every time.Duration, stop <-chan struct{}) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick(every, stop, o.HealthRound)
	}()
	tick(every, stop, o.RedeliverMarks)
	wg.Wait()
	o.RedeliverMarks()
}

func tick(every time.Duration, stop <-chan struct{}, step func()) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			step()
		}
	}
}

// fetchSnapshot pulls and decodes one store snapshot endpoint.
func (o *Orchestrator) fetchSnapshot(ctx context.Context, url string) (*store.DB, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := o.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return store.DecodeSnapshot(body)
}

// fetchSnapshotRetry wraps fetchSnapshot in a short jittered backoff —
// one flapping moment on a live node must not abort the whole merge.
func (o *Orchestrator) fetchSnapshotRetry(url string) (*store.DB, error) {
	bo := resilient.NewBackoff(100*time.Millisecond, time.Second, uint64(time.Now().UnixNano()))
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		db, err := o.fetchSnapshot(context.Background(), url)
		if err == nil {
			return db, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Merge assembles the deterministic cross-node merge: every non-dead
// node's own shards, plus each dead node's shards recovered from
// whichever survivor holds its replica. Exactly one store per node —
// double-counting a shard would shift every table. Replica fetches are
// hedged across the survivors: a gray-failing survivor holds one attempt
// hostage while the hedge completes from another.
func (o *Orchestrator) Merge() (*store.DB, error) {
	var dbs []*store.DB
	var dead []string
	var serving []cluster.Member
	for _, m := range o.Members.Members() {
		if m.State == cluster.Dead {
			dead = append(dead, m.ID)
			continue
		}
		// Draining nodes still serve reads; their shards are theirs.
		serving = append(serving, m)
		db, err := o.fetchSnapshotRetry(m.URL + "/cluster/snapshot")
		if err != nil {
			return nil, fmt.Errorf("snapshot from %s: %w", m.ID, err)
		}
		dbs = append(dbs, db)
		slog.Info(fmt.Sprintf("merged %d tested, %d proxied", db.Totals().Tested, db.Totals().Proxied), "node", m.ID)
	}
	for _, id := range dead {
		attempts := make([]func(context.Context) (*store.DB, error), 0, len(serving))
		for _, m := range serving {
			attempts = append(attempts, func(ctx context.Context) (*store.DB, error) {
				db, err := o.fetchSnapshot(ctx, m.URL+"/cluster/replica?node="+id)
				if err == nil {
					slog.Info(fmt.Sprintf("dead node recovered from replica: %d tested, %d proxied", db.Totals().Tested, db.Totals().Proxied),
						"node", id, "peer", m.ID)
				}
				return db, err
			})
		}
		db, err := resilient.Hedge(context.Background(), replicaHedge, attempts...)
		if err != nil {
			return nil, fmt.Errorf("no survivor holds a replica of dead node %s: %v", id, err)
		}
		dbs = append(dbs, db)
	}
	if len(dbs) == 0 {
		return nil, fmt.Errorf("nothing to merge")
	}
	return store.Merge(0, dbs...), nil
}
