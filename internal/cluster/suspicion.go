package cluster

import (
	"sync"
	"time"

	"tlsfof/internal/telemetry"
)

// Verdict is a suspicion scorer's judgement of one peer.
type Verdict int

const (
	// Healthy: the peer answers, on time, with no self-reported trouble.
	Healthy Verdict = iota
	// Suspect: evidence of gray failure — elevated latency, intermittent
	// errors, or self-reported degradation — but not enough to act on.
	Suspect
	// DeadVerdict: sustained hard failure. Terminal, matching the
	// cluster's membership semantics (a dead mark never un-happens).
	DeadVerdict
)

func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// The scorer's fixed policy, chosen so that three consecutive hard
// failures kill a peer while an alternating fail/success flap converges to
// a score well below the dead threshold.
const (
	// failGain moves the score toward 1 on a hard failure:
	// score += (1-score)·failGain.
	failGain = 0.45
	// successDecay multiplies the score on a successful probe.
	// Decay-on-success is the flap damper: any mixed sequence keeps
	// shrinking what failures grew.
	successDecay = 0.6
	// slowGain caps how much a maximally slow (but successful) probe
	// adds: a slow-but-alive peer saturates in Suspect, never Dead.
	slowGain = 0.25
	// degradeGain is added once per observation that carries
	// self-reported degradation — replication ack timeouts or WAL errors
	// since the last look.
	degradeGain = 0.2
	// suspectThreshold and deadThreshold partition the score space.
	suspectThreshold = 0.3
	deadThreshold    = 0.8
)

// SuspicionConfig tunes the scorer.
type SuspicionConfig struct {
	// LatencyBudget is the RTT a healthy probe should beat (default
	// 250ms). RTT at 2× the budget counts as maximally slow.
	LatencyBudget time.Duration
	// MinDeadFails is the consecutive hard failures required — on top of
	// the score — before Dead (default 3). Any success resets the run,
	// so a flapping peer structurally cannot die.
	MinDeadFails int
}

func (c SuspicionConfig) withDefaults() SuspicionConfig {
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 250 * time.Millisecond
	}
	if c.MinDeadFails <= 0 {
		c.MinDeadFails = 3
	}
	return c
}

// Sample is one health observation of a peer: the probe outcome, its
// round-trip time, and the peer's self-reported degradation deltas
// (read from its /metrics) since the previous sample.
type Sample struct {
	// Err marks a hard failure: probe refused, timed out, or returned
	// garbage. RTT is ignored when set.
	Err bool
	// RTT is the probe round trip for successful probes.
	RTT time.Duration
	// AckTimeouts is the increase in repl_ack_timeouts_total since the
	// last sample — the peer acking in degraded mode because its replica
	// stopped confirming.
	AckTimeouts uint64
	// WALErrors is the increase in cluster_wal_errors_total since the
	// last sample.
	WALErrors uint64
}

type peerScore struct {
	score       float64
	consecFails int
	verdict     Verdict
	flips       uint64
}

// Scorer turns per-peer observation streams into Healthy/Suspect/Dead
// verdicts. Unlike N-consecutive-failures counting, the score is a
// leaky accumulator over every signal — hard failures, latency versus
// budget, self-reported degradation — so a gray-failing peer (slow,
// flapping, or quietly degraded) surfaces as Suspect long before a
// binary detector would notice, while the MinDeadFails run requirement
// keeps any flapping-but-live peer out of Dead.
type Scorer struct {
	cfg SuspicionConfig

	mu    sync.Mutex
	peers map[string]*peerScore
	flaps uint64
}

// NewScorer builds a scorer with cfg's policy.
func NewScorer(cfg SuspicionConfig) *Scorer {
	return &Scorer{cfg: cfg.withDefaults(), peers: make(map[string]*peerScore)}
}

// Observe folds one sample into peer's score and returns the verdict.
// Dead is sticky.
func (s *Scorer) Observe(peer string, smp Sample) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.peers[peer]
	if ps == nil {
		ps = &peerScore{}
		s.peers[peer] = ps
	}
	if ps.verdict == DeadVerdict {
		return DeadVerdict
	}
	if smp.Err {
		ps.consecFails++
		ps.score += (1 - ps.score) * failGain
	} else {
		ps.consecFails = 0
		ps.score *= successDecay
		if smp.RTT > s.cfg.LatencyBudget {
			// Linear in the overshoot, saturating at 2× the budget: a
			// slow success is evidence of gray failure, weaker than an
			// outright error.
			over := float64(smp.RTT-s.cfg.LatencyBudget) / float64(s.cfg.LatencyBudget)
			if over > 1 {
				over = 1
			}
			ps.score += (1 - ps.score) * slowGain * over
		}
	}
	if smp.AckTimeouts > 0 || smp.WALErrors > 0 {
		ps.score += (1 - ps.score) * degradeGain
	}
	next := Healthy
	switch {
	case ps.score >= deadThreshold && ps.consecFails >= s.cfg.MinDeadFails:
		next = DeadVerdict
	case ps.score >= suspectThreshold:
		next = Suspect
	}
	if next != ps.verdict {
		ps.flips++
		s.flaps++
		ps.verdict = next
	}
	return ps.verdict
}

// Score returns peer's current suspicion in [0,1].
func (s *Scorer) Score(peer string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps := s.peers[peer]; ps != nil {
		return ps.score
	}
	return 0
}

// Verdict returns peer's current verdict (Healthy when never observed).
func (s *Scorer) Verdict(peer string) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps := s.peers[peer]; ps != nil {
		return ps.verdict
	}
	return Healthy
}

// Flips returns total verdict transitions across all peers — the flap
// visibility metric (a noisy fleet shows here before it shows anywhere
// else).
func (s *Scorer) Flips() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flaps
}

// MountMetrics exposes the scorer on reg: a score and numeric verdict
// gauge per peer in peers, plus aggregate suspect/dead counts and the
// verdict-flip counter.
func (s *Scorer) MountMetrics(reg *telemetry.Registry, peers []string) {
	for _, id := range peers {
		id := id
		reg.GaugeFunc("health_suspicion_score_"+id, "suspicion score for "+id+" (0 clear, 1 certain)", func() float64 {
			return s.Score(id)
		})
		reg.GaugeFunc("health_verdict_"+id, "verdict for "+id+" (0 healthy, 1 suspect, 2 dead)", func() float64 {
			return float64(s.Verdict(id))
		})
	}
	count := func(v Verdict) float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, ps := range s.peers {
			if ps.verdict == v {
				n++
			}
		}
		return float64(n)
	}
	reg.GaugeFunc("health_suspect_peers", "peers currently under suspicion", func() float64 { return count(Suspect) })
	reg.GaugeFunc("health_dead_peers", "peers judged dead", func() float64 { return count(DeadVerdict) })
	reg.GaugeFunc("health_verdict_flips_total", "verdict transitions across all peers", func() float64 {
		return float64(s.Flips())
	})
}
