package tlsfof

// Cluster chaos matrix: the tier-1 gate for the self-healing routing
// plane. Each scenario runs the golden seeded study through a real
// 3-node HTTP cluster while a faultnet injector drives a scheduled
// fault — symmetric partition, one-way cut, latency injection,
// replication-link cut, a replication stream damaged mid-frame, link
// flap during a drain — between named endpoints, with phases advanced
// deterministically at fixed points in the measurement stream. Every
// scenario must end with the cross-node merge byte-identical to the
// sequential control and the checked-in golden tables, zero measurements
// lost or double-counted, and the fault stats proving the fault actually
// fired. The matrix is
// what makes "self-healing" a property instead of a hope: breakers,
// backoff, relay routing, batch dedup, and suspicion scoring all fail
// here if any one of them regresses.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/fleet"
	"tlsfof/internal/resilient"
	"tlsfof/internal/study"
	"tlsfof/internal/telemetry"
)

// chaosRun is one scenario's live state, handed to stream triggers and
// returned for assertions.
type chaosRun struct {
	h    *clusterHarness
	ctrl *faultnet.Injector
	rc   *cluster.RouteClient
	orch *fleet.Orchestrator
	reg  *telemetry.Registry
	res  *study.Result

	streamed int
}

// chaosOpts configures one scenario run.
type chaosOpts struct {
	// spec is the fault plan, in the language every -fault and -chaos
	// flag reads.
	spec string
	// at maps a measurement-stream position to a trigger (advance the
	// chaos phase, drain a node, probe latency) — the deterministic
	// drive: the same seed and the same trigger points reproduce the
	// same fault exposure.
	at map[int]func(run *chaosRun)
	// node (optional) tweaks each node's Config before Open — the hook
	// for chaos-mounting a node's own outbound client or shrinking its
	// ack deadline.
	node func(ctrl *faultnet.Injector, id string, cfg *cluster.Config)
	// route (optional) tweaks the route client's config.
	route func(cfg *cluster.RouteConfig)
	// health is the orchestrator's suspicion policy.
	health cluster.SuspicionConfig
}

// runChaosStudy streams the golden study through a fresh 3-node cluster
// under opts' fault plan. The route client dials through the injector
// as endpoint "client" with split connect/idle deadlines, so read hangs
// injected by one-way cuts resolve at the idle deadline instead of the
// blanket request timeout. The orchestrator dials through it as
// "fleetctl", the way `fleetctl -chaos` does, so client-side cuts leave
// its marks, health rounds and merge alone.
func runChaosStudy(t *testing.T, opts chaosOpts) *chaosRun {
	t.Helper()
	plan, err := faultnet.Parse(opts.spec)
	if err != nil {
		t.Fatal(err)
	}
	run := &chaosRun{
		ctrl: faultnet.New(plan),
		reg:  telemetry.NewRegistry(),
	}
	run.h = startClusterHarness(t, []string{"a", "b", "c"}, func(id string, members []cluster.Member, cfg *cluster.Config) {
		for _, m := range members {
			run.ctrl.Register(m.ID, strings.TrimPrefix(m.URL, "http://"))
		}
		if opts.node != nil {
			opts.node(run.ctrl, id, cfg)
		}
	})
	run.orch = run.h.orchestrator(run.ctrl.DialContext("fleetctl", nil), opts.health)
	view, err := cluster.NewMembership(run.h.members, 0)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cluster.RouteConfig{
		Members:         view,
		HTTPClient:      resilient.SplitTimeoutClient(2*time.Second, 250*time.Millisecond, run.ctrl.DialContext("client", nil)),
		Retries:         1,
		RetryDelay:      time.Millisecond,
		BreakerCooldown: 250 * time.Millisecond,
		Seed:            2016,
		Registry:        run.reg,
	}
	if opts.route != nil {
		opts.route(&rcfg)
	}
	rc, err := cluster.NewRouteClient(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	run.rc = rc
	cfg := goldenConfig()
	cfg.Sink = core.SinkFunc(func(m core.Measurement) {
		if f, ok := opts.at[run.streamed]; ok {
			f(run)
		}
		run.streamed++
		rc.Ingest(m)
	})
	res, err := study.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	run.res = res
	return run
}

// checkChaosGolden is every scenario's exit gate: nothing lost, nothing
// double-counted (delivered == control total and the orchestrator's
// merged canonical bytes match), and the golden paper tables rendered
// from the merged store equal the checked-in fixtures byte-for-byte.
func (run *chaosRun) checkChaosGolden(t *testing.T, total int, wantCanon []byte) {
	t.Helper()
	st := run.rc.Stats()
	if st.Lost != 0 || run.rc.Err() != nil {
		t.Fatalf("route stats %+v (err %v): measurements lost under chaos", st, run.rc.Err())
	}
	if int(st.Delivered) != total {
		t.Fatalf("delivered %d of %d measurements (stats %+v)", st.Delivered, total, st)
	}
	if run.streamed != total {
		t.Fatalf("streamed %d measurements, control tested %d", run.streamed, total)
	}
	merged, err := run.orch.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonBytes(merged); !bytes.Equal(got, wantCanon) {
		t.Fatalf("cluster merge differs from sequential control (%d vs %d bytes, %d vs %d tested): chaos lost or duplicated data (stats %+v)",
			len(got), len(wantCanon), merged.Totals().Tested, total, st)
	}
	final := *run.res
	final.Store = merged
	checkAgainstGolden(t, goldenDir(t), goldenArtifacts(t, &final))
}

// linkFired asserts the injector actually injected the named fault
// class on a link — a scenario whose fault never fired proves nothing.
func linkFired(t *testing.T, run *chaosRun, link string, pick func(faultnet.Stats) uint64) {
	t.Helper()
	ls, ok := run.ctrl.Stats()[link]
	if !ok || pick(ls) == 0 {
		t.Fatalf("chaos fault never fired on link %s (stats %+v)", link, run.ctrl.Stats())
	}
}

func TestClusterChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix runs six full studies; CI runs it by name")
	}
	// Sequential control: fixes the total and the canonical store every
	// scenario must reproduce.
	seq, err := study.Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := int(seq.Store.Totals().Tested)
	if total < 1000 {
		t.Fatalf("control study produced only %d measurements; the chaos windows would be vacuous", total)
	}
	wantCanon := canonBytes(seq.Store)
	// Symmetric partition between the router and node b: direct
	// delivery fails fast, the breaker opens, batches triangle-route
	// through a reachable peer, and b is never declared dead — it is
	// alive and its shards must stay where the ring put them.
	t.Run("sym-partition", func(t *testing.T) {
		run := runChaosStudy(t, chaosOpts{
			spec: "seed=11, name=clean; name=partition, cut=client:b; name=healed",
			at: map[int]func(*chaosRun){
				total / 4: func(r *chaosRun) { r.ctrl.Advance() },
				total / 2: func(r *chaosRun) { r.ctrl.Advance() },
			},
		})
		st := run.rc.Stats()
		if st.Relayed == 0 {
			t.Fatalf("partition healed without a single relay delivery (stats %+v)", st)
		}
		if st.BreakerOpens == 0 {
			t.Fatalf("sustained direct failure never opened the breaker (stats %+v)", st)
		}
		if st.DeadMarked != 0 {
			t.Fatalf("partitioned-but-alive node was declared dead (stats %+v)", st)
		}
		linkFired(t, run, "client:b", cutFired)
		run.checkChaosGolden(t, total, wantCanon)
	})

	// One-way cut: the router's requests reach b but every response
	// dies. b applies each batch; the lost acks force retries and a
	// relay, all answered from b's dedup table — the scenario that
	// would double-count without batch IDs.
	t.Run("asym-cut-ack-loss", func(t *testing.T) {
		start := 2 * total / 5
		run := runChaosStudy(t, chaosOpts{
			spec: "seed=12, name=clean; name=oneway, cutrecv=client:b; name=healed",
			at: map[int]func(*chaosRun){
				start:            func(r *chaosRun) { r.ctrl.Advance() },
				start + total/20: func(r *chaosRun) { r.ctrl.Advance() },
			},
		})
		st := run.rc.Stats()
		if st.DuplicateAcks == 0 {
			t.Fatalf("ack loss never exercised the dedup table (stats %+v)", st)
		}
		if st.DeadMarked != 0 {
			t.Fatalf("one-way-cut node was declared dead (stats %+v)", st)
		}
		linkFired(t, run, "client:b", func(ls faultnet.Stats) uint64 { return ls.CutReads })
		run.checkChaosGolden(t, total, wantCanon)
	})

	// Slow-but-alive: b answers everything at injected latency, to the
	// router and to the orchestrator alike. No breaker trips, nothing
	// reroutes — but the orchestrator's health rounds through its own
	// slow link must surface b as Suspect (gray failure) and never Dead,
	// and both exposition formats must carry the breaker and suspicion
	// metrics.
	t.Run("slow-node-gray-failure", func(t *testing.T) {
		health := func(r *chaosRun) cluster.Verdict {
			for i := 0; i < 6; i++ {
				r.orch.HealthRound()
			}
			return r.orch.Scorer.Verdict("b")
		}
		var during, after cluster.Verdict
		run := runChaosStudy(t, chaosOpts{
			spec: "seed=13, name=clean; name=slow, lat=client:b:20ms, lat=fleetctl:b:20ms; name=healed",
			at: map[int]func(*chaosRun){
				total / 4:     func(r *chaosRun) { r.ctrl.Advance() },
				total / 3:     func(r *chaosRun) { during = health(r) },
				total / 2:     func(r *chaosRun) { r.ctrl.Advance() },
				2 * total / 3: func(r *chaosRun) { after = health(r) },
			},
			health: cluster.SuspicionConfig{LatencyBudget: 5 * time.Millisecond},
		})
		if during != cluster.Suspect {
			t.Fatalf("slow-but-alive node judged %v under 4x-budget latency, want suspect", during)
		}
		if after != cluster.Healthy {
			t.Fatalf("node still %v after the latency healed, want healthy", after)
		}
		st := run.rc.Stats()
		if st.BreakerOpens != 0 || st.DeadMarked != 0 {
			t.Fatalf("latency alone tripped hard-failure machinery (stats %+v)", st)
		}
		for _, link := range []string{"client:b", "fleetctl:b"} {
			linkFired(t, run, link, func(ls faultnet.Stats) uint64 { return ls.Delays })
		}
		if b, _ := run.orch.Members.Get("b"); b.State != cluster.Alive {
			t.Fatalf("orchestrator holds slow-but-alive b %v", b.State)
		}

		// Both exposition formats must carry the new metric families.
		run.orch.Scorer.MountMetrics(run.reg, []string{"b"})
		srv := httptest.NewServer(telemetry.Handler(run.reg))
		defer srv.Close()
		for _, q := range []string{"", "?format=prometheus"} {
			resp, err := http.Get(srv.URL + q)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, name := range []string{"route_breaker_opens_total", "route_duplicate_acks_total", "health_suspicion_score_b", "health_verdict_flips_total"} {
				if !strings.Contains(string(body), name) {
					t.Fatalf("exposition %q missing %s:\n%s", q, name, body)
				}
			}
		}
		run.checkChaosGolden(t, total, wantCanon)
	})

	// The replication link, faulted two ways while client traffic stays
	// clean: cut outright for a quarter of the stream, and damaged
	// mid-stream — for the first quarter, the follower holding b's
	// replica reads tail streams that the injector truncates after
	// 100,000 bytes of each connection, so frames tear in the body, not
	// in the HTTP headers (a byte fault is fixed when a connection is
	// dialed, so it must be in force from the follower's first dial). b
	// must keep accepting, the study must finish golden, and after the
	// heal the replica must catch up on b's whole WAL.
	probeView, err := cluster.NewMembership([]cluster.Member{
		{ID: "a", URL: "x"}, {ID: "b", URL: "x"}, {ID: "c", URL: "x"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	succ, ok := probeView.ReplicaTarget("b")
	if !ok {
		t.Fatal("no replica target for b")
	}
	for _, row := range []struct {
		name, spec string
		fired      func(faultnet.Stats) uint64
		torn       bool
	}{
		{"repl-link-cut", "seed=14, name=clean; name=cut, cut=" + succ.ID + ":b; name=healed", cutFired, false},
		{"repl-stream-damage", "seed=16, name=damaged, truncate=" + succ.ID + ":b, truncate=100000; name=healed",
			func(ls faultnet.Stats) uint64 { return ls.Truncates }, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := runChaosStudy(t, chaosOpts{
				spec: row.spec,
				at: map[int]func(*chaosRun){
					total / 4: func(r *chaosRun) { r.ctrl.Advance() },
					total / 2: func(r *chaosRun) { r.ctrl.Advance() },
				},
				node: func(ctrl *faultnet.Injector, id string, cfg *cluster.Config) {
					if id == succ.ID {
						// The replica follower dials its source through the
						// injector — the only link this scenario faults.
						cfg.HTTPClient = resilient.SplitTimeoutClient(2*time.Second, 250*time.Millisecond, ctrl.DialContext(id, nil))
					}
					if id == "b" {
						cfg.AckTimeout = 75 * time.Millisecond
					}
				},
			})
			if !row.torn && metricValue(t, run.h.registries["b"], "repl_ack_timeouts_total") == 0 {
				t.Fatal("replication cut never forced a degraded ack on b")
			}
			if row.torn && metricValue(t, run.h.registries[succ.ID], "repl_torn_streams_total") == 0 {
				t.Fatalf("no tail stream tore mid-frame: the damage never reached the tail body (stats %+v)", run.ctrl.Stats())
			}
			st := run.rc.Stats()
			if st.DeadMarked != 0 || st.Relayed != 0 {
				t.Fatalf("a replication-only fault leaked into the ingest path (stats %+v)", st)
			}
			linkFired(t, run, succ.ID+":b", row.fired)
			run.checkChaosGolden(t, total, wantCanon)
			// The healed follower must fully catch up on b's WAL — the fault
			// cost availability headroom, not durability. Poll: the tail
			// resumes on the follower's own cadence after the link heals.
			deadline := time.Now().Add(5 * time.Second)
			for {
				last := run.h.nodes["b"].Status().LastSeq
				applied := make(map[int]uint64)
				for _, rs := range run.h.nodes[succ.ID].Status().Replicas {
					if rs.Source == "b" {
						applied[rs.Shard] = rs.AppliedSeq
					}
				}
				caughtUp := len(applied) == len(last)
				for i, seq := range last {
					if applied[i] < seq {
						caughtUp = false
					}
				}
				if caughtUp {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica of b never caught up after the heal: last %v applied %v", last, applied)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}

	// Link flap while a node drains: the orchestrator drains c mid-study
	// (peers first, then c) while c's link to the router flaps
	// cut/healed/cut/healed. The router must fold the drain in through
	// relayed not-owner verdicts and never escalate the flapping link to
	// a death.
	t.Run("flap-during-drain", func(t *testing.T) {
		start := 2 * total / 5
		step := total / 20
		run := runChaosStudy(t, chaosOpts{
			spec: "seed=15, name=clean; name=flap-1, cut=client:c; name=gap; name=flap-2, cut=client:c; name=healed",
			at: map[int]func(*chaosRun){
				start: func(r *chaosRun) {
					r.ctrl.Advance()
					if err := r.orch.Drain("c"); err != nil {
						t.Fatal(err)
					}
				},
				start + step:   func(r *chaosRun) { r.ctrl.Advance() },
				start + 2*step: func(r *chaosRun) { r.ctrl.Advance() },
				start + 3*step: func(r *chaosRun) { r.ctrl.Advance() },
			},
		})
		st := run.rc.Stats()
		if st.NotOwnerRetries == 0 || st.Rerouted == 0 {
			t.Fatalf("drain never surfaced through the flapping link (stats %+v)", st)
		}
		if st.DeadMarked != 0 {
			t.Fatalf("flapping-but-draining node was declared dead (stats %+v)", st)
		}
		if run.ctrl.Flaps() < 2 {
			t.Fatalf("chaos schedule counted only %d link flaps", run.ctrl.Flaps())
		}
		linkFired(t, run, "client:c", cutFired)
		run.checkChaosGolden(t, total, wantCanon)
	})
}

// cutFired counts every way a cut link can refuse traffic.
func cutFired(ls faultnet.Stats) uint64 { return ls.CutDials + ls.CutReads + ls.CutWrites }
