package resilient

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// Closed passes traffic and counts consecutive failures.
	Closed BreakerState = iota
	// Open fails fast; after the cooldown it admits one probe.
	Open
	// HalfOpen has one probe in flight; its outcome decides.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-peer circuit breaker: Threshold consecutive failures
// open it, Cooldown later it admits a single half-open probe, and the
// probe's outcome either closes it or re-opens it for another cooldown.
// Open is advisory — callers that have no alternative path may still
// attempt the peer — but the fast-fail signal is what lets a router
// switch to a relay path instead of burning its whole retry budget on a
// partitioned link. Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	consec   int
	openedAt time.Time
	opens    uint64
}

// NewBreaker builds a breaker opening after threshold consecutive
// failures (default 3) and probing after cooldown (default 1s). now
// overrides the clock for tests (nil = time.Now).
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether an attempt should proceed. From Open it returns
// false until the cooldown lapses, then transitions to HalfOpen and
// admits exactly one probe; further calls fail fast until that probe
// reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		return false // a probe is already in flight
	default: // Open
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = HalfOpen
		return true
	}
}

// Success records a successful attempt, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = Closed
	b.consec = 0
	b.mu.Unlock()
}

// Failure records a failed attempt. A half-open probe failure re-opens
// immediately; in Closed state the consecutive count must reach the
// threshold first.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	if b.state == HalfOpen || (b.state == Closed && b.consec >= b.threshold) {
		b.state = Open
		b.openedAt = b.now()
		b.opens++
	}
}

// Opens counts Closed/HalfOpen→Open transitions — the breaker's
// exported health metric.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
