// Package faultnet is a seeded, fully deterministic fault-injection
// layer for net.Conn. The paper's measurement ran over the open Internet
// from 142 countries (§4), where probes met truncated flights,
// mid-handshake resets, slow and coalesced records, fragmented TLS
// records, and garbage bytes; faultnet reproduces that hostility in the
// lab, on demand, from a replayable seed.
//
// A Plan owns a seed and a set of Scenarios. Every connection wrapped by
// the plan gets a per-connection RNG derived from (seed, connection
// index) and a Scenario assigned round-robin, so the complete fault
// schedule — which connection is truncated where, which bytes are
// corrupted with which mask, what garbage is prepended — is a pure
// function of the seed and the wrap order. Plan.Schedule returns that
// record; two plans built from the same seed produce identical
// schedules, which is what makes a failing fault-matrix run replayable.
//
// Faults are applied on the wrapped side only; the peer sees ordinary
// (if hostile-looking) traffic. Write-side faults (fragmentation,
// coalescing, duplication, segment swaps, slowloris stalls) mangle what
// the wrapped endpoint sends; read-side faults (truncation, resets,
// per-read latency, byte corruption, garbage and spurious-alert
// prefixes) mangle what it receives. Stalls and delays respect both the
// connection's deadlines and Close, so a probe's own timeout machinery
// — not the fault layer — decides when a stalled exchange dies.
//
// Network is the hermetic transport the plans compose with: an in-memory
// internet of named origins over net.Pipe, with Intercepted placing a
// proxy on the client's path (Figure 3's topology). The cmd layer
// exposes plans via -fault flags (see ParseSpec), the in-memory network
// via Plan.Dialer, and TestFaultMatrix at the repo root drives the full
// scenario grid through both the raw-probe and interceptor planes. A
// Controller lifts the same idea to a cluster's link matrix. DESIGN.md
// §9 and §13 document the architecture.
package faultnet
