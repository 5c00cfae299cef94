package resilient

import (
	"sync"
	"time"

	"tlsfof/internal/stats"
)

// Backoff produces a capped, jittered exponential retry schedule. The
// jitter comes from the repo's deterministic RNG substrate
// (internal/stats), so a seeded backoff replays the exact same schedule
// run over run — the same replayability contract faultnet's fault
// schedules carry. Safe for concurrent use; concurrent callers
// interleave one shared attempt counter, which is the intent for a
// per-peer retry budget.
type Backoff struct {
	base time.Duration
	cap  time.Duration

	mu      sync.Mutex
	rng     *stats.RNG
	attempt int
}

// NewBackoff builds a schedule starting at base and doubling per attempt
// up to cap, each delay jittered uniformly in [d/2, d). base defaults to
// 50ms and cap to 64×base when non-positive.
func NewBackoff(base, cap time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = 64 * base
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: stats.NewRNG(seed)}
}

// Next returns the next delay in the schedule and advances the attempt
// counter.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.base
	for i := 0; i < b.attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	b.attempt++
	// Full-range jitter would let a delay collapse to ~0 and hammer a
	// struggling peer; half-floor jitter keeps delays in [d/2, d) so the
	// schedule both spreads retries and guarantees real pauses.
	half := d / 2
	if half > 0 {
		d = half + time.Duration(b.rng.Uint64()%uint64(half))
	}
	return d
}
