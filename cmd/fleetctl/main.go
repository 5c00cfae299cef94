// Command fleetctl orchestrates a distributed measurement run: a
// reportd cluster on the storage side, many mitmd interception points on
// the wire side, and a fleet of tlsproxy-probe workers between them.
//
//	fleetctl -nodes a=http://127.0.0.1:8081,b=http://127.0.0.1:8082,c=http://127.0.0.1:8083 \
//	         -targets 127.0.0.1:8443,127.0.0.1:8444 \
//	         -probe-bin ./bin/tlsproxy-probe -fleet 4 -count 50 \
//	         -hosts tlsresearch.byu.edu -reference ref.pem
//
// fleetctl launches one probe subprocess per mitmd target (each running
// -fleet concurrent workers), spreads their report uploads across the
// cluster round-robin — any node observes a report, and its own
// cluster.RouteClient delivers each measurement to the owning node — and
// monitors node health the whole run with a suspicion scorer: every
// status probe folds its outcome, its round-trip time against the
// latency budget, and the node's self-reported degradation counters
// (replication ack timeouts, WAL errors, scraped from /metrics) into a
// per-node score. A node is declared dead only on sustained hard
// failure; a slow or flapping node surfaces as suspect without
// shrinking the cluster. Death and drain marks that a peer missed are
// queued and re-broadcast until the peer acks them or dies itself.
//
// On completion fleetctl drives the deterministic cross-node merge:
// every live node's own shards via /cluster/snapshot (backoff-retried),
// every dead node's shards via /cluster/replica hedged across the
// survivors holding its replicated WAL, folded through store.Merge
// (canonical order — the same merge the golden-table conformance suite
// pins) and rendered as the paper tables.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlsfof/internal/analysis"
	"tlsfof/internal/cluster"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/geo"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetctl: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Printf("fleetctl: "+format+"\n", args...)
}

// maxPendingMarks bounds the re-broadcast queue; beyond it the oldest
// mark is dropped (and logged) rather than growing without bound.
const maxPendingMarks = 256

// mark is one undelivered membership fact: peer has not yet acked that
// subject is dead/draining.
type mark struct {
	kind    string // "dead" or "draining"
	subject string
	peer    string
}

// fleet is the orchestrator state: the cluster view it maintains, the
// suspicion scorer judging it, and the probe subprocesses it
// supervises.
type fleet struct {
	members *cluster.Membership
	httpc   *http.Client
	scorer  *cluster.Scorer

	mu      sync.Mutex
	procs   []*exec.Cmd
	pending []mark
	// prevMetrics holds each node's last-scraped degradation counters so
	// health samples carry deltas, not lifetime totals.
	prevMetrics map[string]map[string]float64
}

// aliveMembers snapshots the members still routable.
func (f *fleet) aliveMembers() []cluster.Member {
	var out []cluster.Member
	for _, m := range f.members.Members() {
		if m.State == cluster.Alive {
			out = append(out, m)
		}
	}
	return out
}

// post fires one control POST, returning any transport or status error.
func (f *fleet) post(url string) error {
	resp, err := f.httpc.Post(url, "", nil)
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
func (f *fleet) markURL(m mark) (string, bool) {
	peer, ok := f.members.Get(m.peer)
	if !ok {
		return "", false
	}
	return peer.URL + "/cluster/" + m.kind + "?node=" + m.subject, true
}

// enqueueMark queues an undelivered mark for re-broadcast.
func (f *fleet) enqueueMark(m mark) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) >= maxPendingMarks {
		logf("mark queue full; dropping oldest (%s %s -> %s)", f.pending[0].kind, f.pending[0].subject, f.pending[0].peer)
		f.pending = f.pending[1:]
	}
	f.pending = append(f.pending, m)
}

// broadcastMark tells every surviving peer a membership fact. A peer
// that cannot be reached right now gets the mark queued: membership
// facts must eventually land everywhere, or routed batches ping-pong
// between the orchestrator's view and a stale peer's forever.
func (f *fleet) broadcastMark(kind, subject string) {
	for _, m := range f.aliveMembers() {
		if m.ID == subject {
			continue
		}
		mk := mark{kind: kind, subject: subject, peer: m.ID}
		url, _ := f.markURL(mk)
		if err := f.post(url); err != nil {
			logf("peer %s missed %s-mark of %s (%v); queued for re-broadcast", m.ID, kind, subject, err)
			f.enqueueMark(mk)
		}
	}
}

// markLoop re-delivers queued marks until each is acked or its target
// peer is itself dead. Runs until stop closes; a final drain pass at
// shutdown gives every mark one last attempt.
func (f *fleet) markLoop(every time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			f.redeliverMarks()
			return
		case <-ticker.C:
			f.redeliverMarks()
		}
	}
}

func (f *fleet) redeliverMarks() {
	f.mu.Lock()
	batch := f.pending
	f.pending = nil
	f.mu.Unlock()
	for _, mk := range batch {
		if peer, ok := f.members.Get(mk.peer); !ok || peer.State == cluster.Dead {
			continue // the peer died; its view no longer matters
		}
		url, ok := f.markURL(mk)
		if !ok {
			continue
		}
		if err := f.post(url); err != nil {
			f.enqueueMark(mk) // still unreachable; keep trying
			continue
		}
		logf("re-broadcast %s-mark of %s delivered to %s", mk.kind, mk.subject, mk.peer)
	}
}

// broadcastDead tells every surviving peer that id is gone.
func (f *fleet) broadcastDead(id string) {
	f.members.MarkDead(id)
	f.broadcastMark("dead", id)
	logf("node %s declared dead to the fleet", id)
}

// drainNode drains id: the broadcast first, then the node itself. In
// that order the window between the two is benign — peers already accept
// id's arcs as the successors, and id still accepts whatever a stale
// router sends it. Draining the node first opens a window in which id
// disowns a batch that every peer bounces straight back to it.
func (f *fleet) drainNode(id string) {
	m, ok := f.members.Get(id)
	if !ok {
		logf("cannot drain unknown node %q", id)
		return
	}
	f.members.MarkDraining(id)
	f.broadcastMark("draining", id)
	if err := f.post(m.URL + "/cluster/drain"); err != nil {
		logf("drain of %s failed: %v", id, err)
		return
	}
	logf("node %s draining", id)
}

// degradationCounters are the self-reported metrics the health loop
// folds into suspicion: a node acking in degraded mode or failing WAL
// writes is in trouble even while its status endpoint answers quickly.
var degradationCounters = []string{"repl_ack_timeouts_total", "cluster_wal_errors_total"}

// scrapeDegradation reads a node's /metrics (Prometheus text form) and
// returns the degradation counters' increase since the last scrape.
func (f *fleet) scrapeDegradation(m cluster.Member) (ackDelta, walDelta uint64) {
	resp, err := f.httpc.Get(m.URL + "/metrics?format=prometheus")
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
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.prevMetrics == nil {
		f.prevMetrics = make(map[string]map[string]float64)
	}
	prev := f.prevMetrics[m.ID]
	f.prevMetrics[m.ID] = cur
	delta := func(name string) uint64 {
		d := cur[name] - prev[name]
		if prev == nil || d <= 0 {
			return 0
		}
		return uint64(d)
	}
	return delta("repl_ack_timeouts_total"), delta("cluster_wal_errors_total")
}

// healthLoop polls every member's /cluster/status and feeds the
// suspicion scorer: probe outcome, RTT against the latency budget, and
// the node's self-reported degradation deltas. Only a Dead verdict —
// sustained hard failure, never latency or flap — triggers the death
// broadcast.
func (f *fleet) healthLoop(every time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		for _, m := range f.members.Members() {
			if m.State == cluster.Dead {
				continue
			}
			start := time.Now()
			resp, err := f.httpc.Get(m.URL + "/cluster/status")
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
				smp.AckTimeouts, smp.WALErrors = f.scrapeDegradation(m)
			}
			was := f.scorer.Verdict(m.ID)
			verdict := f.scorer.Observe(m.ID, smp)
			if verdict != was {
				logf("node %s: %s -> %s (score %.2f)", m.ID, was, verdict, f.scorer.Score(m.ID))
			}
			if verdict == cluster.DeadVerdict {
				f.broadcastDead(m.ID)
			}
		}
	}
}

// launchProbes starts one probe subprocess per mitmd target, uploads
// spread round-robin across the alive nodes. Every node holds the
// authoritative chains and routes what it observes to the owners, so any
// node is a valid first hop for any mix of hosts.
func (f *fleet) launchProbes(bin string, targets []string, args probeArgs) error {
	alive := f.aliveMembers()
	if len(alive) == 0 {
		return fmt.Errorf("no alive nodes to report to")
	}
	for i, target := range targets {
		node := alive[i%len(alive)]
		argv := []string{
			"-addr", target,
			"-fleet", strconv.Itoa(args.fleet),
			"-report", node.URL + "/ingest/batch",
			"-batch", strconv.Itoa(args.batch),
		}
		if args.count > 0 {
			argv = append(argv, "-count", strconv.Itoa(args.count))
		} else {
			argv = append(argv, "-duration", args.duration.String())
		}
		if args.hosts != "" {
			argv = append(argv, "-hosts", args.hosts)
		}
		if args.reference != "" {
			argv = append(argv, "-reference", args.reference)
		}
		if args.extra != "" {
			argv = append(argv, strings.Fields(args.extra)...)
		}
		cmd := exec.Command(bin, argv...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("probe for %s: %w", target, err)
		}
		logf("probe[%d] pid %d -> mitmd %s, reporting to %s", i, cmd.Process.Pid, target, node.ID)
		f.mu.Lock()
		f.procs = append(f.procs, cmd)
		f.mu.Unlock()
	}
	return nil
}

// waitProbes blocks until every probe subprocess exits, reporting the
// first failure.
func (f *fleet) waitProbes() error {
	f.mu.Lock()
	procs := append([]*exec.Cmd(nil), f.procs...)
	f.mu.Unlock()
	var first error
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil && first == nil {
			first = fmt.Errorf("probe[%d]: %w", i, err)
		}
	}
	return first
}

type probeArgs struct {
	fleet     int
	count     int
	duration  time.Duration
	batch     int
	hosts     string
	reference string
	extra     string
}

// fetchSnapshot pulls and decodes one store snapshot endpoint.
func (f *fleet) fetchSnapshot(ctx context.Context, url string) (*store.DB, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.httpc.Do(req)
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
func (f *fleet) fetchSnapshotRetry(url string) (*store.DB, error) {
	bo := resilient.NewBackoff(100*time.Millisecond, time.Second, uint64(time.Now().UnixNano()))
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		db, err := f.fetchSnapshot(context.Background(), url)
		if err == nil {
			return db, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// mergeCluster assembles the deterministic cross-node merge: every
// non-dead node's own shards, plus each dead node's shards recovered
// from whichever survivor holds its replica. Exactly one store per
// node — double-counting a shard would shift every table. Replica
// fetches are hedged across the survivors: a gray-failing survivor
// holds one attempt hostage while the hedge completes from another.
func (f *fleet) mergeCluster() (*store.DB, error) {
	var dbs []*store.DB
	var dead []string
	var serving []cluster.Member
	for _, m := range f.members.Members() {
		if m.State == cluster.Dead {
			dead = append(dead, m.ID)
			continue
		}
		// Draining nodes still serve reads; their shards are theirs.
		serving = append(serving, m)
		db, err := f.fetchSnapshotRetry(m.URL + "/cluster/snapshot")
		if err != nil {
			return nil, fmt.Errorf("snapshot from %s: %w", m.ID, err)
		}
		dbs = append(dbs, db)
		logf("node %s: %d tested, %d proxied", m.ID, db.Totals().Tested, db.Totals().Proxied)
	}
	for _, id := range dead {
		id := id
		attempts := make([]func(context.Context) (*store.DB, error), 0, len(serving))
		for _, m := range serving {
			m := m
			attempts = append(attempts, func(ctx context.Context) (*store.DB, error) {
				db, err := f.fetchSnapshot(ctx, m.URL+"/cluster/replica?node="+id)
				if err == nil {
					logf("node %s (dead): recovered from %s's replica: %d tested, %d proxied",
						id, m.ID, db.Totals().Tested, db.Totals().Proxied)
				}
				return db, err
			})
		}
		db, err := resilient.Hedge(context.Background(), 2*time.Second, attempts...)
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

// renderTables writes the paper tables the merged store supports.
func renderTables(w io.Writer, db *store.DB) error {
	gdb := geo.NewDB()
	t := db.Totals()
	fmt.Fprintf(w, "merged: %d tested, %d proxied (%.2f%%)\n\n", t.Tested, t.Proxied, 100*t.Rate())
	for _, render := range []func() error{
		func() error { return analysis.Table3(w, db, gdb) },
		func() error { return analysis.Table4(w, db, 0) },
		func() error { return analysis.Table5(w, db) },
		func() error { return analysis.Table6(w, db) },
		func() error { return analysis.Table7(w, db, gdb) },
		func() error { return analysis.Table8(w, db) },
		func() error { return analysis.Negligence(w, db) },
		func() error { return analysis.Products(w, db, 0) },
	} {
		if err := render(); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var (
		nodesSpec = flag.String("nodes", "", "reportd cluster members as id=url,id=url,... (required)")
		targets   = flag.String("targets", "", "comma-separated mitmd addresses to probe (host:port,...)")
		probeBin  = flag.String("probe-bin", "tlsproxy-probe", "tlsproxy-probe binary to launch per target")
		fleetN    = flag.Int("fleet", 4, "concurrent probe workers per target")
		count     = flag.Int("count", 0, "probes per worker (0 = use -duration)")
		duration  = flag.Duration("duration", 10*time.Second, "per-probe wall-clock budget when -count is 0")
		hosts     = flag.String("hosts", "", "comma-separated SNI names the probes rotate over")
		reference = flag.String("reference", "", "authoritative chain PEM handed to each probe")
		batch     = flag.Int("batch", 256, "reports per probe upload batch")
		probeXtra = flag.String("probe-args", "", "extra arguments appended to every probe command line")

		healthEvery = flag.Duration("health-every", 500*time.Millisecond, "node health poll cadence")
		healthFails = flag.Int("health-fails", 3, "consecutive hard probe failures required (with a saturated suspicion score) before a node is declared dead")
		latBudget   = flag.Duration("latency-budget", 250*time.Millisecond, "status-probe RTT a healthy node should beat; slower probes raise suspicion")
		drainIDs    = flag.String("drain", "", "comma-separated node IDs to drain after -drain-after")
		deadIDs     = flag.String("dead", "", "comma-separated node IDs already known dead (broadcast before the run; their shards merge from replicas)")
		drainAfter  = flag.Duration("drain-after", 2*time.Second, "delay before draining -drain nodes")

		merge    = flag.Bool("merge", true, "fetch and merge every node's tables at the end of the run")
		outPath  = flag.String("out", "", "write merged tables here (default stdout)")
		connectT = flag.Duration("connect-timeout", 5*time.Second, "TCP connect deadline for cluster calls")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-read idle deadline for cluster calls (a moving transfer may run longer)")
		chaos    = flag.String("chaos", "", "chaos plan for fleetctl's own links (faultnet DSL, e.g. 'for=2s;cut=fleetctl:b,for=3s;'); endpoints are node IDs")
	)
	flag.Parse()

	if *nodesSpec == "" {
		fatalf("-nodes is required")
	}
	memberList, err := cluster.ParseMembers(*nodesSpec)
	if err != nil {
		fatalf("%v", err)
	}
	members, err := cluster.NewMembership(memberList, 0)
	if err != nil {
		fatalf("%v", err)
	}

	var dial resilient.DialFunc
	if *chaos != "" {
		plan, err := faultnet.ParseChaosSpec(*chaos)
		if err != nil {
			fatalf("-chaos: %v", err)
		}
		ctrl := faultnet.NewController(plan)
		for _, m := range memberList {
			if host := strings.TrimPrefix(strings.TrimPrefix(m.URL, "http://"), "https://"); host != "" {
				ctrl.Register(m.ID, strings.TrimSuffix(host, "/"))
			}
		}
		ctrl.Start()
		defer ctrl.Stop()
		dial = ctrl.DialContext("fleetctl", nil)
		logf("chaos plan armed: %d phases", len(plan.Phases))
	}

	f := &fleet{
		members: members,
		httpc:   resilient.SplitTimeoutClient(*connectT, *timeout, dial),
		scorer:  cluster.NewScorer(cluster.SuspicionConfig{LatencyBudget: *latBudget, MinDeadFails: *healthFails}),
	}

	for _, id := range strings.Split(*deadIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			f.broadcastDead(id)
		}
	}

	// The run is bounded by the probes; the health and mark loops run
	// alongside.
	stopHealth := make(chan struct{})
	go f.healthLoop(*healthEvery, stopHealth)
	markDone := make(chan struct{})
	go func() {
		defer close(markDone)
		f.markLoop(*healthEvery, stopHealth)
	}()

	if *drainIDs != "" {
		go func() {
			time.Sleep(*drainAfter)
			for _, id := range strings.Split(*drainIDs, ",") {
				if id = strings.TrimSpace(id); id != "" {
					f.drainNode(id)
				}
			}
		}()
	}

	if *targets != "" {
		var targetList []string
		for _, tgt := range strings.Split(*targets, ",") {
			if tgt = strings.TrimSpace(tgt); tgt != "" {
				targetList = append(targetList, tgt)
			}
		}
		args := probeArgs{
			fleet: *fleetN, count: *count, duration: *duration,
			batch: *batch, hosts: *hosts, reference: *reference, extra: *probeXtra,
		}
		if err := f.launchProbes(*probeBin, targetList, args); err != nil {
			fatalf("%v", err)
		}
		if err := f.waitProbes(); err != nil {
			logf("probe failure (continuing to merge): %v", err)
		}
		logf("all probes finished")
	}
	close(stopHealth)
	<-markDone // final re-broadcast drain before the merge routes reads

	if !*merge {
		return
	}
	db, err := f.mergeCluster()
	if err != nil {
		fatalf("merge: %v", err)
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		file, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer file.Close()
		out = file
	}
	if err := renderTables(out, db); err != nil {
		fatalf("render: %v", err)
	}
}
