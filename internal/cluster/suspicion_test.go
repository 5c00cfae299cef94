package cluster

import (
	"testing"
	"time"

	"tlsfof/internal/stats"
	"tlsfof/internal/telemetry"
)

// TestSuspicionHardPartitionDies: sustained hard failure must reach
// Dead within the MinDeadFails window — a binary detector's guarantee,
// kept.
func TestSuspicionHardPartitionDies(t *testing.T) {
	s := NewScorer(SuspicionConfig{})
	var v Verdict
	for i := 0; i < 3; i++ {
		v = s.Observe("b", Sample{Err: true})
	}
	if v != DeadVerdict {
		t.Fatalf("verdict %v after 3 hard failures (score %.3f), want dead", v, s.Score("b"))
	}
	// Dead is sticky: even a successful probe cannot resurrect.
	if v := s.Observe("b", Sample{RTT: time.Millisecond}); v != DeadVerdict {
		t.Fatalf("dead peer resurrected to %v", v)
	}
}

// TestSuspicionFlappingNeverDies: a peer alternating failure and
// success — the flapping link — must never be declared dead, no matter
// how long the flap runs. This is the damping property consecutive-miss
// counting lacks only by accident of phase.
func TestSuspicionFlappingNeverDies(t *testing.T) {
	s := NewScorer(SuspicionConfig{})
	for i := 0; i < 500; i++ {
		var v Verdict
		if i%2 == 0 {
			v = s.Observe("c", Sample{Err: true})
		} else {
			v = s.Observe("c", Sample{RTT: 5 * time.Millisecond})
		}
		if v == DeadVerdict {
			t.Fatalf("flapping peer declared dead at sample %d (score %.3f)", i, s.Score("c"))
		}
	}
	// Two failures in a row inside a flap still must not kill (run of 2 <
	// MinDeadFails of 3).
	for i := 0; i < 200; i++ {
		s.Observe("d", Sample{Err: true})
		s.Observe("d", Sample{Err: true})
		s.Observe("d", Sample{RTT: time.Millisecond})
		if s.Verdict("d") == DeadVerdict {
			t.Fatalf("2-run flap killed peer at round %d", i)
		}
	}
}

// TestSuspicionSlowButAliveIsSuspectNotDead: gray failure — every probe
// succeeds but at several times the latency budget — must surface as
// Suspect and must never escalate to Dead.
func TestSuspicionSlowButAliveIsSuspectNotDead(t *testing.T) {
	s := NewScorer(SuspicionConfig{LatencyBudget: 50 * time.Millisecond})
	rng := stats.NewRNG(2016)
	sawSuspect := false
	for i := 0; i < 300; i++ {
		// Seeded latency series around 3× the budget with jitter.
		rtt := 150*time.Millisecond + time.Duration(rng.Uint64n(uint64(40*time.Millisecond)))
		v := s.Observe("slow", Sample{RTT: rtt})
		if v == DeadVerdict {
			t.Fatalf("slow-but-alive peer declared dead at sample %d (score %.3f)", i, s.Score("slow"))
		}
		if v == Suspect {
			sawSuspect = true
		}
	}
	if !sawSuspect {
		t.Fatalf("3x-budget latency never raised suspicion (score %.3f)", s.Score("slow"))
	}
	// A fast peer stays entirely clear.
	for i := 0; i < 50; i++ {
		if v := s.Observe("fast", Sample{RTT: time.Millisecond}); v != Healthy {
			t.Fatalf("fast peer judged %v", v)
		}
	}
}

// TestSuspicionSelfReportedDegradation: ack-timeout and WAL-error
// deltas raise the score even when probes succeed quickly — the node
// telling on itself.
func TestSuspicionSelfReportedDegradation(t *testing.T) {
	s := NewScorer(SuspicionConfig{})
	for i := 0; i < 10; i++ {
		s.Observe("deg", Sample{RTT: time.Millisecond, AckTimeouts: 2})
	}
	if v := s.Verdict("deg"); v != Suspect {
		t.Fatalf("degraded-but-fast peer judged %v (score %.3f), want suspect", v, s.Score("deg"))
	}
	// Degradation alone (no hard failures) must not kill.
	for i := 0; i < 100; i++ {
		if v := s.Observe("deg", Sample{RTT: time.Millisecond, WALErrors: 1}); v == DeadVerdict {
			t.Fatalf("self-reported degradation killed a live peer at %d", i)
		}
	}
	// Recovery: clean samples decay the score back to Healthy.
	for i := 0; i < 20; i++ {
		s.Observe("deg", Sample{RTT: time.Millisecond})
	}
	if v := s.Verdict("deg"); v != Healthy {
		t.Fatalf("recovered peer still %v (score %.3f)", v, s.Score("deg"))
	}
}

func TestSuspicionMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewScorer(SuspicionConfig{})
	s.MountMetrics(reg, []string{"a", "b"})
	s.Observe("a", Sample{RTT: time.Millisecond})
	for i := 0; i < 3; i++ {
		s.Observe("b", Sample{Err: true})
	}
	snap := reg.Snapshot()
	byName := map[string]float64{}
	for _, m := range snap {
		byName[m.Name] = m.Value
	}
	if byName["health_verdict_b"] != float64(DeadVerdict) {
		t.Fatalf("health_verdict_b = %v, want %d", byName["health_verdict_b"], DeadVerdict)
	}
	if byName["health_dead_peers"] != 1 {
		t.Fatalf("health_dead_peers = %v", byName["health_dead_peers"])
	}
	if byName["health_suspicion_score_b"] < 0.8 {
		t.Fatalf("health_suspicion_score_b = %v, want >= dead threshold", byName["health_suspicion_score_b"])
	}
	if byName["health_verdict_flips_total"] == 0 {
		t.Fatal("verdict flips not exported")
	}
	if s.Flips() == 0 {
		t.Fatal("Flips() = 0")
	}
}
