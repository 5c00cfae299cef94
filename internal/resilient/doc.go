// Package resilient holds the failure-tolerance policy primitives the
// distributed measurement plane shares: capped jittered exponential
// backoff (seeded, so retry schedules are replayable), per-peer circuit
// breakers and an HTTP client with split connect/idle-read deadlines
// instead of one blanket total-transfer timeout. Pool, the bounded
// accept loop every server runs, is the bulkhead among them.
//
// These are policies, not mechanisms: internal/faultnet injects the
// network misbehavior, this package decides how the routing and merge
// layers survive it. DESIGN.md §13 specifies the contracts.
package resilient
