package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/ingest"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// ErrNodeKilled is returned by every operation on a killed node.
var ErrNodeKilled = errors.New("cluster: node killed")

// Config configures one cluster node. ID, Members and DataDir are
// required; everything else defaults. Shards must be uniform across the
// cluster — with DefaultVNodes it defines the hash partition.
type Config struct {
	// ID is this node's member ID; it must appear in Members.
	ID string
	// Members is the boot-time cluster view.
	Members []Member
	// DataDir holds own/shard-NNN WALs and replica/<peer>/shard-NNN
	// replica WALs.
	DataDir string
	// Shards is the per-node local shard count (default 2).
	Shards int
	// SegmentBytes is the WAL rotation threshold (default 64 MiB).
	SegmentBytes int64
	// AckTimeout bounds how long an ingest batch waits for its replica
	// watermark before acking in degraded mode (default 10s; negative
	// disables the wait entirely).
	AckTimeout time.Duration
	// PollInterval is the follower's idle/backoff cadence (default 25ms).
	PollInterval time.Duration
	// LongPoll is how long a caught-up tail request parks server-side
	// waiting for new frames (default 250ms).
	LongPoll time.Duration
	// Registry receives replication and rebalance metrics; nil mounts
	// them on a private registry.
	Registry *telemetry.Registry
	// HTTPClient is used by followers and relay forwards. The default is
	// a split-deadline client (resilient.SplitTimeoutClient with its
	// defaults): connect and every single read are bounded, with no
	// blanket total-transfer cap — a snapshot catch-up over a slow link
	// may take as long as it keeps moving, while a stalled link fails at
	// the idle deadline.
	HTTPClient *http.Client
	// Logf, when set, receives operational one-liners.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.LongPoll <= 0 {
		c.LongPoll = 250 * time.Millisecond
	}
	if c.HTTPClient == nil {
		c.HTTPClient = resilient.SplitTimeoutClient(0, 0, nil)
		// A node keeps one tail poll per shard open to the peer it follows;
		// the transport's default of two idle connections per host would
		// close and re-dial the rest on every poll.
		c.HTTPClient.Transport.(*http.Transport).MaxIdleConnsPerHost = c.Shards
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// seqSignal is a sequence number that only grows and that goroutines
// can park on. advance closes the current channel and installs a fresh
// one; a waiter reads the value and the channel under one lock hold, so
// an advance between its check and its park cannot be missed.
type seqSignal struct {
	mu sync.Mutex
	v  uint64
	ch chan struct{}
}

// load returns the current value and a channel that closes on the next
// advance.
func (s *seqSignal) load() (uint64, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.v, s.ch
}

func (s *seqSignal) now() uint64 {
	v, _ := s.load()
	return v
}

// advance raises the value to v and wakes every waiter; a v at or below
// the current value is ignored.
func (s *seqSignal) advance(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v <= s.v {
		return
	}
	s.v = v
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// waitPast blocks until the value exceeds x, the timeout lapses, or
// either stop channel closes (a nil one never does). True means the
// value got there.
func (s *seqSignal) waitPast(x uint64, timeout time.Duration, stop, stop2 <-chan struct{}) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		v, ch := s.load()
		if v > x {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			return false
		case <-stop:
			return false
		case <-stop2:
			return false
		}
	}
}

// shard is the node's mount of the shard engine (durable.Shard: WAL,
// store, commit lock) plus the replication state its policy needs. A
// batch commits under the engine's lock (append, fsync, apply), so a
// batch is either fully durable or untouched — the property that makes
// retrying an unacknowledged batch elsewhere safe. The lock is released
// as soon as the commit is published; the wait for the replica happens
// with no lock held, so the next batch commits behind this one and one
// follower poll releases them both.
type shard struct {
	*durable.Shard
	// lastSeq is the last committed (fsynced) seq. Advancing it is what
	// wakes a follower's parked /repl/tail long poll.
	lastSeq seqSignal
	// watermark is the replica follower's confirmed position: every seq
	// < watermark is durable on the peer. It advances when the follower
	// polls /repl/tail with its next wanted seq, and that is what
	// releases the batches parked in IngestBatch.
	watermark seqSignal
}

type nodeMetrics struct {
	tailPolls      *telemetry.Counter
	framesServed   *telemetry.Counter
	framesApplied  *telemetry.Counter
	snapsApplied   *telemetry.Counter
	catchupPolls   *telemetry.Counter
	ackWaits       *telemetry.Counter
	ackTimeouts    *telemetry.Counter
	batches        *telemetry.Counter
	notOwner       *telemetry.Counter
	measurements   *telemetry.Counter
	duplicates     *telemetry.Counter
	relayForwarded *telemetry.Counter
	relayFailed    *telemetry.Counter
	walErrors      *telemetry.Counter
}

// dedupCap bounds the batch-verdict memory. 8192 Accepted verdicts is
// hours of routed traffic; a retry arriving after eviction re-applies,
// but only a client that kept retrying one batch across thousands of
// others can get there, and the router gives up long before.
const dedupCap = 8192

// dedupTable remembers the verdicts of applied TFM2 batches so a retry
// of a batch whose ack died on the wire (the asymmetric-partition
// window) is answered from memory instead of double-counted. IDs are
// claimed on arrival, not recorded at completion: a twin arriving while
// its first copy is still mid-apply blocks until that verdict resolves.
// Without the claim, a client whose read deadline fires during a slow
// apply retries into a handler that is still running, the lookup
// misses, and the batch lands twice. FIFO eviction — recency is
// irrelevant, retries land within seconds.
type dedupTable struct {
	mu    sync.Mutex
	seen  map[uint64]*dedupEntry
	order []uint64
}

// dedupEntry is one claimed batch ID. done closes when the owning
// request resolves; kept marks the verdict durable (the batch is
// applied here and must never re-run).
type dedupEntry struct {
	done chan struct{}
	res  ingest.BatchResult
	kept bool
}

// claim registers the caller as id's handler. A previously kept verdict
// returns (nil, verdict, true) immediately. A claim still in flight
// blocks for its outcome: kept resolves to a duplicate, abandoned
// (NotOwner, error — nothing applied) hands ownership to the caller.
// On (entry, _, false) the caller MUST resolve the entry on every exit
// or concurrent twins hang.
func (d *dedupTable) claim(id uint64) (*dedupEntry, ingest.BatchResult, bool) {
	for {
		d.mu.Lock()
		if e, ok := d.seen[id]; ok {
			d.mu.Unlock()
			<-e.done
			d.mu.Lock()
			res, kept := e.res, e.kept
			d.mu.Unlock()
			if kept {
				return nil, res, true
			}
			continue // the twin applied nothing; take over as owner
		}
		if d.seen == nil {
			d.seen = make(map[uint64]*dedupEntry)
		}
		e := &dedupEntry{done: make(chan struct{})}
		d.seen[id] = e
		d.order = append(d.order, id)
		if len(d.order) > dedupCap {
			delete(d.seen, d.order[0])
			d.order = d.order[1:]
		}
		d.mu.Unlock()
		return e, ingest.BatchResult{}, false
	}
}

// resolve publishes the claimed verdict and wakes every waiting twin.
// keep=false drops the entry so a retry can genuinely re-run. Operates
// on the entry pointer, not the map — the claim may have been evicted
// while in flight, and its waiters must still wake.
func (d *dedupTable) resolve(id uint64, e *dedupEntry, res ingest.BatchResult, keep bool) {
	d.mu.Lock()
	e.res, e.kept = res, keep
	if !keep && d.seen[id] == e {
		delete(d.seen, id) // the stale order slot is tolerated by eviction
	}
	close(e.done)
	d.mu.Unlock()
}

// Node is one reportd's cluster runtime: the local shards it owns, the
// followers replicating its peers, and the HTTP surface gluing the
// cluster together.
type Node struct {
	cfg       Config
	self      Member
	members   *Membership
	shards    []*shard
	followers []*follower
	// replicaPeer is the boot-time successor holding this node's
	// replica ("" in a one-node cluster). Replica topology is fixed at
	// boot: membership changes reroute ownership immediately, but
	// followers are not re-targeted mid-run (DESIGN.md §12).
	replicaPeer string

	// inflight is Kill's barrier: IngestBatch read-holds it from entry to
	// answer, Kill write-takes it.
	inflight sync.RWMutex
	// ctx ends when the node stops (Kill or Close); followers' tail
	// requests carry it so a stop never waits out a peer's LongPoll.
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	startMu  sync.Mutex
	started  bool
	killed   atomic.Bool
	draining atomic.Bool
	met      nodeMetrics
	dedup    dedupTable
}

// Open recovers the node's own shards and replica logs from DataDir and
// wires the cluster view. Followers do not run until Start.
func Open(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" || cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: Config.ID and Config.DataDir required")
	}
	members, err := NewMembership(cfg.Members, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	self, ok := members.Get(cfg.ID)
	if !ok {
		return nil, fmt.Errorf("cluster: node %q not in member list", cfg.ID)
	}
	n := &Node{cfg: cfg, self: self, members: members}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	ownDir := filepath.Join(cfg.DataDir, "own")
	if err := ingest.PinShardManifest(ownDir, cfg.Shards, cfg.ID); err != nil {
		return nil, err
	}
	engines, infos, err := durable.OpenShards(ownDir, cfg.Shards, n.shardOptions(""))
	if err != nil {
		return nil, err
	}
	for i, e := range engines {
		sh := &shard{Shard: e}
		sh.lastSeq.advance(e.Log.NextSeq() - 1)
		n.shards = append(n.shards, sh)
		if info := infos[i]; info.Replayed > 0 || info.SnapshotSeq > 0 {
			cfg.Logf("cluster %s: shard %d recovered through seq %d (snapshot %d, %d replayed)",
				cfg.ID, i, info.LastSeq, info.SnapshotSeq, info.Replayed)
		}
	}
	if peer, ok := members.ReplicaTarget(cfg.ID); ok {
		n.replicaPeer = peer.ID
	}
	// Follow every peer whose replica we hold.
	for _, m := range members.Members() {
		if m.ID == cfg.ID || m.State == Dead {
			continue
		}
		target, ok := members.ReplicaTarget(m.ID)
		if !ok || target.ID != cfg.ID {
			continue
		}
		repRoot := filepath.Join(cfg.DataDir, "replica", m.ID)
		// From here a failed boot closes the logs already opened (Close on
		// a node that never started just closes them).
		if err := ingest.PinShardManifest(repRoot, cfg.Shards, cfg.ID); err != nil {
			n.Close()
			return nil, err
		}
		for i := 0; i < cfg.Shards; i++ {
			dir := durable.ShardDir(repRoot, i)
			log, err := durable.Open(n.shardOptions(dir))
			if err != nil {
				n.Close()
				return nil, err
			}
			f := &follower{n: n, source: m.ID, shardIdx: i, dir: dir, done: make(chan struct{}), dec: durable.NewReplDecoder(nil)}
			f.log.Store(log)
			n.followers = append(n.followers, f)
		}
	}
	n.mountMetrics(cfg.Registry)
	return n, nil
}

// shardOptions builds WAL options for one shard directory. SyncEvery is
// disabled: the commit path group-syncs explicitly per batch, and
// followers sync after each applied stream.
func (n *Node) shardOptions(dir string) durable.Options {
	return durable.Options{Dir: dir, SegmentBytes: n.cfg.SegmentBytes, SyncEvery: -1}
}

func (n *Node) mountMetrics(reg *telemetry.Registry) {
	n.met = nodeMetrics{
		tailPolls:      reg.Counter("repl_tail_polls_total", "replication tail polls served"),
		framesServed:   reg.Counter("repl_frames_served_total", "WAL frames served to replica followers"),
		framesApplied:  reg.Counter("repl_frames_applied_total", "WAL frames applied to replica logs"),
		snapsApplied:   reg.Counter("repl_snapshots_applied_total", "snapshot catch-ups applied to replica logs"),
		catchupPolls:   reg.Counter("repl_catchup_polls_total", "follower polls that applied at least one record"),
		ackWaits:       reg.Counter("repl_ack_waits_total", "ingest batches that waited for replica acknowledgement"),
		ackTimeouts:    reg.Counter("repl_ack_timeouts_total", "ingest batches acked in degraded mode after an ack timeout"),
		batches:        reg.Counter("cluster_ingest_batches_total", "measurement batches accepted by this node"),
		notOwner:       reg.Counter("cluster_ingest_not_owner_total", "measurement batches refused with a not-owner verdict"),
		measurements:   reg.Counter("cluster_ingest_measurements_total", "measurements accepted by this node"),
		duplicates:     reg.Counter("cluster_ingest_duplicates_total", "retried batches answered from the dedup table instead of re-applied"),
		relayForwarded: reg.Counter("cluster_relay_forwarded_total", "relayed batches forwarded to their owner on a client's behalf"),
		relayFailed:    reg.Counter("cluster_relay_failed_total", "relay forwards that could not reach the owner"),
		walErrors:      reg.Counter("cluster_wal_errors_total", "shard WAL append or sync failures"),
	}
	reg.GaugeFunc("repl_lag_frames", "frames acked locally but not yet confirmed by the replica", func() float64 {
		var lag uint64
		for _, sh := range n.shards {
			last := sh.lastSeq.now()
			wm := sh.watermark.now()
			if wm <= last {
				lag += last - wm + 1
			}
		}
		return float64(lag)
	})
	reg.GaugeFunc("repl_tail_read_bytes_total", "WAL segment bytes read to serve replica followers; growing faster than the WAL means a follower fell off the tail cursor", func() float64 {
		var read uint64
		for _, sh := range n.shards {
			read += sh.Log.Stats().TailReadBytes
		}
		return float64(read)
	})
	reg.GaugeFunc("cluster_members_alive", "members in the alive state", func() float64 {
		return float64(n.members.AliveCount())
	})
	reg.GaugeFunc("cluster_rebalances_total", "ring rebuilds since boot (membership epoch)", func() float64 {
		return float64(n.members.Epoch())
	})
}

// Members exposes the node's cluster view.
func (n *Node) Members() *Membership { return n.members }

// Start launches the replica followers. Idempotent.
func (n *Node) Start() {
	n.startMu.Lock()
	defer n.startMu.Unlock()
	if n.started {
		return
	}
	n.started = true
	for _, f := range n.followers {
		n.wg.Add(1)
		go func(f *follower) {
			defer n.wg.Done()
			f.run()
		}(f)
	}
}

// Owns reports whether this node owns host under the current view, and
// if not, who does.
func (n *Node) Owns(host string) (owned bool, owner Member) {
	m, ok := n.members.Owner(host)
	if !ok {
		return false, Member{}
	}
	return m.ID == n.self.ID, m
}

// IngestBatch commits a batch of measurements this node owns: group by
// local shard, then commit every group concurrently — each an fsync
// under its shard's lock followed, with the lock released, by a wait
// for the replica to confirm (or for the degraded-mode timeout) — and
// return when all of them have. A batch costs its slowest shard, not the
// sum of its shards. On error some groups may have committed; the caller
// answers the whole batch as failed. Ownership is the caller's contract
// — the HTTP handler enforces it for routed traffic.
func (n *Node) IngestBatch(ms []core.Measurement) error {
	// Kill's barrier: held for the whole call, so Kill returns only after
	// this batch has been answered, and no batch starts after it.
	n.inflight.RLock()
	defer n.inflight.RUnlock()
	if n.killed.Load() {
		return ErrNodeKilled
	}
	if len(ms) == 0 {
		return nil
	}
	groups := make([][]core.Measurement, n.cfg.Shards)
	if n.cfg.Shards == 1 {
		groups[0] = ms
	} else {
		// Counting pass first: the groups are carved out of one backing
		// array instead of grown by append.
		counts := make([]int, n.cfg.Shards)
		for i := range ms {
			counts[ingest.ShardOf(ms[i].Host, n.cfg.Shards)]++
		}
		backing := make([]core.Measurement, len(ms))
		off := 0
		for si, c := range counts {
			groups[si] = backing[off : off : off+c]
			off += c
		}
		for i := range ms {
			si := ingest.ShardOf(ms[i].Host, n.cfg.Shards)
			groups[si] = append(groups[si], ms[i])
		}
	}
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[si] = n.applyShard(si, group)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	n.met.batches.Inc()
	n.met.measurements.Add(uint64(len(ms)))
	return nil
}

// applyShard commits one shard group and waits for its replica ack.
func (n *Node) applyShard(si int, ms []core.Measurement) error {
	sh := n.shards[si]
	sh.Lock()
	last, err := sh.Commit(ms, true)
	if err == nil {
		sh.lastSeq.advance(last)
	}
	sh.Unlock()
	if err != nil {
		n.met.walErrors.Inc()
		return err
	}
	if n.cfg.AckTimeout > 0 && n.replicaWaitable() {
		n.met.ackWaits.Inc()
		if !sh.watermark.waitPast(last, n.cfg.AckTimeout, n.ctx.Done(), nil) {
			// Degraded mode: the batch is durable here but the replica is
			// lagging or gone. Acking anyway keeps the fleet moving; the
			// counter is the alarm.
			n.met.ackTimeouts.Inc()
		}
	}
	return nil
}

// replicaWaitable reports whether a live peer is actually tailing this
// node's WAL. The boot-time successor is the only candidate — replica
// topology does not chase ring changes — so once that peer is dead the
// wait is pointless and acks degrade immediately.
func (n *Node) replicaWaitable() bool {
	if n.replicaPeer == "" {
		return false
	}
	m, ok := n.members.Get(n.replicaPeer)
	return ok && m.State != Dead
}

// Drain puts the node in draining state: it stops owning ring arcs in
// its own view, so routed batches get not-owner verdicts naming the new
// owner, while replication tails and reads keep serving.
func (n *Node) Drain() {
	n.draining.Store(true)
	n.members.MarkDraining(n.self.ID)
	n.cfg.Logf("cluster %s: draining", n.self.ID)
}

// Kill emulates SIGKILL for the in-process crash tests: it waits out
// every in-flight batch through its answer — commit, replica wait and
// all; IngestBatch holds the in-flight barrier for its whole call —
// marks the node dead to every subsequent request, stops the followers,
// and abandons the WALs without flushing — buffered unsynced frames are
// lost exactly as a real kill would lose them. The data plane contract
// survives: every acked batch was fsynced (and, sync-ack permitting,
// replicated) before its ack, and an unacked batch never touched the
// WAL.
func (n *Node) Kill() {
	n.inflight.Lock()
	n.killed.Store(true)
	n.cancel()
	n.inflight.Unlock()
	n.wg.Wait()
}

// Close shuts the node down gracefully: stop followers (final sync
// included), close every log. A killed node closes to a no-op.
func (n *Node) Close() error {
	if n.killed.Load() {
		return nil
	}
	n.cancel()
	n.wg.Wait()
	var first error
	for _, f := range n.followers {
		if err := f.logRef().Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sh := range n.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the node's own shard engines in shard order.
func (n *Node) Shards() []*durable.Shard {
	out := make([]*durable.Shard, len(n.shards))
	for i, sh := range n.shards {
		out[i] = sh.Shard
	}
	return out
}

// WALStats returns durable accounting for the node's own shard logs —
// the same document ingest.Pipeline.WALStats gives in single-node mode.
func (n *Node) WALStats() []durable.Stats {
	return durable.WALStats(n.Shards())
}

// MergeLocal merges this node's own shard stores into one deterministic
// aggregate (store.Merge's canonical order).
func (n *Node) MergeLocal() *store.DB {
	dbs := make([]*store.DB, len(n.shards))
	for i, sh := range n.shards {
		dbs[i] = sh.DB
	}
	return store.Merge(0, dbs...)
}

// RecoverReplica rebuilds a dead peer's shards from the replica WALs
// this node holds: newest snapshot plus replicated tail per shard,
// merged deterministically. It refuses while the source is still alive
// (its follower would be appending underneath the recovery) and waits
// for the source's followers to wind down first.
func (n *Node) RecoverReplica(sourceID string) (*store.DB, error) {
	if m, ok := n.members.Get(sourceID); ok && m.State != Dead {
		return nil, fmt.Errorf("cluster: %s is %s, not dead; refusing replica recovery", sourceID, m.State)
	}
	var mine []*follower
	for _, f := range n.followers {
		if f.source == sourceID {
			mine = append(mine, f)
		}
	}
	if len(mine) == 0 {
		return nil, fmt.Errorf("cluster: %s holds no replica of %s", n.self.ID, sourceID)
	}
	for _, f := range mine {
		select {
		case <-f.done:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("cluster: follower of %s shard %d did not stop", sourceID, f.shardIdx)
		}
	}
	dbs := make([]*store.DB, 0, len(mine))
	for _, f := range mine {
		db, info, err := durable.Recover(n.shardOptions(f.dir))
		if err != nil {
			return nil, err
		}
		if info.DroppedTail {
			n.cfg.Logf("cluster %s: replica of %s shard %d dropped tail: %s", n.self.ID, sourceID, f.shardIdx, info.Reason)
		}
		dbs = append(dbs, db)
	}
	return store.Merge(0, dbs...), nil
}

// ReplStatus describes one replica stream this node follows.
type ReplStatus struct {
	Source     string `json:"source"`
	Shard      int    `json:"shard"`
	AppliedSeq uint64 `json:"applied_seq"`
}

// Status is the /cluster/status document — the shard manifest fleetctl
// routes against.
type Status struct {
	ID        string       `json:"id"`
	State     string       `json:"state"`
	Epoch     uint64       `json:"epoch"`
	Shards    int          `json:"shards"`
	VNodes    int          `json:"vnodes"`
	Members   []Member     `json:"members"`
	LastSeq   []uint64     `json:"last_seq"`
	Watermark []uint64     `json:"watermark"`
	Replicas  []ReplStatus `json:"replicas,omitempty"`
}

// Status assembles the node's current view.
func (n *Node) Status() Status {
	st := Status{
		ID:     n.self.ID,
		State:  n.stateString(),
		Epoch:  n.members.Epoch(),
		Shards: n.cfg.Shards,
		VNodes: DefaultVNodes,
	}
	st.Members = n.members.Members()
	for _, sh := range n.shards {
		st.LastSeq = append(st.LastSeq, sh.lastSeq.now())
		st.Watermark = append(st.Watermark, sh.watermark.now())
	}
	for _, f := range n.followers {
		st.Replicas = append(st.Replicas, ReplStatus{Source: f.source, Shard: f.shardIdx, AppliedSeq: f.logRef().NextSeq() - 1})
	}
	return st
}

func (n *Node) stateString() string {
	switch {
	case n.killed.Load():
		return "killed"
	case n.draining.Load():
		return Draining.String()
	default:
		return Alive.String()
	}
}

// Handler returns the node's HTTP surface: /cluster/* control endpoints
// and the /repl/tail replication stream. Every route answers 503 once
// the node is killed.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/tail", n.handleTail)
	mux.HandleFunc("/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Status())
	})
	mux.HandleFunc("/cluster/ingest", n.handleIngest)
	mux.HandleFunc("/cluster/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		n.Drain()
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/cluster/draining", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("node")
		if id == "" {
			http.Error(w, "node parameter required", http.StatusBadRequest)
			return
		}
		// The orchestrator's drain broadcast: every peer must agree the
		// drainer no longer owns arcs, or routed batches ping-pong between
		// the drainer's verdict and the peers' stale rings.
		if n.members.MarkDraining(id) {
			n.cfg.Logf("cluster %s: marked %s draining (epoch %d)", n.self.ID, id, n.members.Epoch())
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/cluster/dead", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("node")
		if id == "" {
			http.Error(w, "node parameter required", http.StatusBadRequest)
			return
		}
		if n.members.MarkDead(id) {
			n.cfg.Logf("cluster %s: marked %s dead (epoch %d)", n.self.ID, id, n.members.Epoch())
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/cluster/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(n.MergeLocal().AppendSnapshot(nil))
	})
	mux.HandleFunc("/cluster/replica", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("node")
		if id == "" {
			http.Error(w, "node parameter required", http.StatusBadRequest)
			return
		}
		db, err := n.RecoverReplica(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(db.AppendSnapshot(nil))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.killed.Load() {
			http.Error(w, ErrNodeKilled.Error(), http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// tailFrames caps frames per tail response; the follower polls again for
// the rest.
const tailFrames = 8192

// handleTail serves one follower poll: record the follower's durable
// position as the watermark, park when caught up until a commit lands
// (or LongPoll lapses), then stream frames from the WAL.
func (n *Node) handleTail(w http.ResponseWriter, r *http.Request) {
	si, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || si < 0 || si >= len(n.shards) {
		http.Error(w, "bad shard", http.StatusBadRequest)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	if from == 0 {
		from = 1
	}
	sh := n.shards[si]
	n.met.tailPolls.Inc()
	// A follower ahead of this log belongs to another incarnation of it.
	// Refuse before publishing anything: its position as a watermark would
	// ack batches that were never copied.
	if from > sh.Log.NextSeq() {
		http.Error(w, durable.ErrTailAhead.Error(), http.StatusConflict)
		return
	}
	// The poll position is the follower's promise: everything below it is
	// durable on the replica. Publishing it releases pending acks.
	sh.watermark.advance(from)
	// A follower that gives up on its poll (its node stopping, its client
	// deadline) frees this handler at once instead of a LongPoll later.
	if !sh.lastSeq.waitPast(from-1, n.cfg.LongPoll, n.ctx.Done(), r.Context().Done()) {
		select {
		case <-n.ctx.Done():
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		case <-r.Context().Done():
			return // nobody is listening for the answer
		default: // caught up for a whole LongPoll: answer an empty tail
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	sent, err := sh.Log.ServeTail(w, from, tailFrames)
	if err != nil {
		// Mid-stream failure: the connection carries a truncated stream,
		// which the follower treats as a cut and re-polls.
		n.cfg.Logf("cluster %s: tail shard %d from %d: %v", n.self.ID, si, from, err)
		return
	}
	n.met.framesServed.Add(uint64(sent))
}

// handleIngest accepts one routed measurement batch. The whole batch
// must decode and the whole batch must be owned — any foreign host
// refuses everything with a not-owner verdict before a single frame is
// written, so a router's retry against the new owner can never double
// count.
//
// Two extensions serve partition recovery. A TFM2 batch ID already in
// the dedup table is answered with its stored verdict — even if
// ownership has since moved, because the batch IS durably applied here
// and will be merged from here; re-applying on the new owner would
// double count. And ?relay=1 asks a reachable non-owner to forward the
// batch to its true owner (one hop, the forward carries no relay flag):
// the triangle route a client uses when its direct link to a live owner
// is cut.
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	writeRes := func(status int, res ingest.BatchResult) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(res)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxMeasBatchBytes))
	if err != nil {
		writeRes(http.StatusRequestEntityTooLarge, ingest.BatchResult{Error: err.Error()})
		return
	}
	ms, batchID, err := DecodeMeasurementsID(body)
	if err != nil {
		writeRes(http.StatusBadRequest, ingest.BatchResult{Error: err.Error()})
		return
	}
	if batchID != 0 {
		entry, res, dup := n.dedup.claim(batchID)
		if dup {
			n.met.duplicates.Inc()
			res.Duplicate = true
			writeRes(http.StatusOK, res)
			return
		}
		// Every exit below runs through writeRes exactly once; resolving
		// there keeps only durable verdicts (an accepted apply, direct or
		// relayed) and releases any twin blocked on this claim.
		inner := writeRes
		writeRes = func(status int, res ingest.BatchResult) {
			keep := status == http.StatusOK && res.Accepted > 0 && !res.NotOwner && res.Error == ""
			n.dedup.resolve(batchID, entry, res, keep)
			inner(status, res)
		}
	}
	for _, m := range ms {
		owned, owner := n.Owns(m.Host)
		if owned {
			continue
		}
		if r.URL.Query().Get("relay") == "1" && owner.ID != "" {
			n.relayForward(w, writeRes, owner, body)
			return
		}
		n.met.notOwner.Inc()
		writeRes(http.StatusOK, ingest.BatchResult{NotOwner: true, Owner: owner.ID, OwnerURL: owner.URL})
		return
	}
	if err := n.IngestBatch(ms); err != nil {
		writeRes(http.StatusServiceUnavailable, ingest.BatchResult{Error: err.Error()})
		return
	}
	res := ingest.BatchResult{Accepted: len(ms)}
	if r.URL.Query().Get("relay") == "1" {
		// The sender believed someone else owned these hosts; we applied
		// them as owner under our (fresher) view. Naming ourselves lets
		// the sender fold the ownership change into its ring instead of
		// relaying every future batch.
		res.Owner = n.self.ID
		res.OwnerURL = n.self.URL
	}
	writeRes(http.StatusOK, res)
}

// relayForward pushes a relayed batch to its owner and pipes the
// owner's verdict back verbatim (the owner's dedup table makes the
// extra hop idempotent). A transport failure or an unparseable reply
// becomes a 502 so the relaying client can distinguish "relay path
// broken" from the owner's own verdicts.
func (n *Node) relayForward(w http.ResponseWriter, writeRes func(int, ingest.BatchResult), owner Member, body []byte) {
	res, status, err := ingest.PostBatch(n.cfg.HTTPClient, owner.URL+"/cluster/ingest", body)
	if err != nil {
		n.met.relayFailed.Inc()
		writeRes(http.StatusBadGateway, ingest.BatchResult{Error: fmt.Sprintf("relay to %s: %v", owner.ID, err)})
		return
	}
	n.met.relayForwarded.Inc()
	writeRes(status, res)
}
