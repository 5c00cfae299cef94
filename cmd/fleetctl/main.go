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
// -fleet concurrent workers) and spreads their report uploads across the
// cluster round-robin. Everything else is internal/fleet's orchestrator:
// death and drain marks, health rounds scored for suspicion the whole
// run, and on completion the deterministic cross-node merge, rendered
// here as the paper tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"tlsfof/internal/analysis"
	"tlsfof/internal/cluster"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/fleet"
	"tlsfof/internal/geo"
	"tlsfof/internal/resilient"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: tables to -out (or stdout), its own log lines
// to stdout, failures, warnings and (when the run ends) the event ring of
// the orchestrator's events to stderr; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetctl", flag.ExitOnError)
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fleetctl: "+format+"\n", args...)
		return 1
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "fleetctl: "+format+"\n", args...)
	}
	var (
		nodesSpec = fs.String("nodes", "", "reportd cluster members as id=url,id=url,... (required)")
		targets   = fs.String("targets", "", "comma-separated mitmd addresses to probe (host:port,...)")
		probeBin  = fs.String("probe-bin", "tlsproxy-probe", "tlsproxy-probe binary to launch per target")
		fleetN    = fs.Int("fleet", 4, "concurrent probe workers per target")
		count     = fs.Int("count", 0, "probes per worker (0 = use -duration)")
		duration  = fs.Duration("duration", 10*time.Second, "per-probe wall-clock budget when -count is 0")
		hosts     = fs.String("hosts", "", "comma-separated SNI names the probes rotate over")
		reference = fs.String("reference", "", "authoritative chain PEM handed to each probe")
		batch     = fs.Int("batch", 256, "reports per probe upload batch")
		probeXtra = fs.String("probe-args", "", "extra arguments appended to every probe command line")

		healthEvery = fs.Duration("health-every", 500*time.Millisecond, "node health poll cadence")
		healthFails = fs.Int("health-fails", 3, "consecutive hard probe failures required (with a saturated suspicion score) before a node is declared dead")
		latBudget   = fs.Duration("latency-budget", 250*time.Millisecond, "status-probe RTT a healthy node should beat; slower probes raise suspicion")
		drainIDs    = fs.String("drain", "", "comma-separated node IDs to drain after -drain-after")
		deadIDs     = fs.String("dead", "", "comma-separated node IDs already known dead (broadcast before the run; their shards merge from replicas)")
		drainAfter  = fs.Duration("drain-after", 2*time.Second, "delay before draining -drain nodes")

		merge    = fs.Bool("merge", true, "fetch and merge every node's tables at the end of the run")
		outPath  = fs.String("out", "", "write merged tables here (default stdout)")
		connectT = fs.Duration("connect-timeout", 5*time.Second, "TCP connect deadline for cluster calls")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-read idle deadline for cluster calls (a moving transfer may run longer)")
		chaos    = fs.String("chaos", "", "fault plan for fleetctl's own links, e.g. 'for=2s;cut=fleetctl:b,for=3s;' (endpoints are node IDs; grammar in DESIGN.md §9)")
	)
	fs.Parse(args)
	ring := telemetry.NewEventRing(0)
	_ = (&telemetry.SideDoor{Ring: ring, Stderr: stderr}).Open() // binds no listener, so cannot fail
	defer ring.Dump(stderr)

	memberList, err := cluster.ParseMembers(*nodesSpec)
	if err != nil {
		return fatalf("-nodes: %v", err)
	}
	members, err := cluster.NewMembership(memberList, 0)
	if err != nil {
		return fatalf("%v", err)
	}

	var dial resilient.DialFunc
	if *chaos != "" {
		plan, err := faultnet.Parse(*chaos)
		if err != nil {
			return fatalf("-chaos: %v", err)
		}
		ctrl := faultnet.New(plan)
		for _, m := range memberList { // ParseMembers trimmed any trailing '/'
			ctrl.Register(m.ID, strings.TrimPrefix(strings.TrimPrefix(m.URL, "http://"), "https://"))
		}
		ctrl.Start()
		defer ctrl.Stop()
		dial = ctrl.DialContext("fleetctl", nil)
		logf("chaos plan armed: %d phases", len(plan.Phases))
	}

	o := &fleet.Orchestrator{
		Members: members,
		HTTP:    resilient.SplitTimeoutClient(*connectT, *timeout, dial),
		Scorer:  cluster.NewScorer(cluster.SuspicionConfig{LatencyBudget: *latBudget, MinDeadFails: *healthFails}),
	}
	for _, id := range splitList(*deadIDs) {
		o.DeclareDead(id)
	}

	// The run is bounded by the probes. Health rounds, mark re-delivery
	// and the -drain timer run alongside and end with it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	endRun := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer endRun()
	wg.Add(2)
	go func() { defer wg.Done(); o.Run(*healthEvery, stop) }()
	go func() {
		defer wg.Done()
		select {
		case <-time.After(*drainAfter):
		case <-stop:
			return // the run ended first
		}
		for _, id := range splitList(*drainIDs) {
			if err := o.Drain(id); err != nil {
				logf("%v", err)
			}
		}
	}()
	if targetList := splitList(*targets); len(targetList) > 0 {
		// Every probe gets these; only its target and upload node differ.
		probeFlags := []string{"-fleet", strconv.Itoa(*fleetN), "-batch", strconv.Itoa(*batch)}
		if *count > 0 {
			probeFlags = append(probeFlags, "-count", strconv.Itoa(*count))
		} else {
			probeFlags = append(probeFlags, "-duration", duration.String())
		}
		if *hosts != "" {
			probeFlags = append(probeFlags, "-hosts", *hosts)
		}
		if *reference != "" {
			probeFlags = append(probeFlags, "-reference", *reference)
		}
		probeFlags = append(probeFlags, strings.Fields(*probeXtra)...)
		procs, err := launchProbes(*probeBin, targetList, members.Members(), probeFlags, stdout, stderr, logf)
		if err != nil {
			return fatalf("%v", err)
		}
		if err := waitProbes(procs); err != nil {
			logf("probe failure (continuing to merge): %v", err)
		}
		logf("all probes finished")
	}
	endRun() // the marks' last re-delivery lands before the merge

	if !*merge {
		return 0
	}
	db, err := o.Merge()
	if err != nil {
		return fatalf("merge: %v", err)
	}
	out := stdout
	if *outPath != "" {
		file, err := os.Create(*outPath)
		if err != nil {
			return fatalf("%v", err)
		}
		defer file.Close()
		out = file
	}
	if err := renderTables(out, db); err != nil {
		return fatalf("render: %v", err)
	}
	return 0
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
}

// launchProbes starts one probe subprocess per mitmd target, uploads
// spread round-robin across the alive nodes. Every node holds the
// authoritative chains and routes what it observes to the owners, so any
// node is a valid first hop for any mix of hosts.
func launchProbes(bin string, targets []string, members []cluster.Member, probeFlags []string, stdout, stderr io.Writer, logf func(string, ...any)) ([]*exec.Cmd, error) {
	var alive []cluster.Member
	for _, m := range members {
		if m.State == cluster.Alive {
			alive = append(alive, m)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("no alive nodes to report to")
	}
	var procs []*exec.Cmd
	for i, target := range targets {
		node := alive[i%len(alive)]
		argv := append([]string{"-addr", target, "-report", node.URL + "/ingest/batch"}, probeFlags...)
		cmd := exec.Command(bin, argv...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("probe for %s: %w", target, err)
		}
		logf("probe[%d] pid %d -> mitmd %s, reporting to %s", i, cmd.Process.Pid, target, node.ID)
		procs = append(procs, cmd)
	}
	return procs, nil
}

// waitProbes blocks until every probe subprocess exits, reporting the
// first failure.
func waitProbes(procs []*exec.Cmd) error {
	var first error
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil && first == nil {
			first = fmt.Errorf("probe[%d]: %w", i, err)
		}
	}
	return first
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
