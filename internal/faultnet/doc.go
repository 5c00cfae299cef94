// Package faultnet is a seeded, fully deterministic fault-injection
// layer for net.Conn. The paper's measurement ran over the open Internet
// from 142 countries (§4), where probes met truncated flights,
// mid-handshake resets, slow and coalesced records, fragmented TLS
// records, and garbage bytes; faultnet reproduces that hostility in the
// lab, on demand, from a replayable seed — on one probe's wire or across
// a whole cluster's link matrix.
//
// One language describes every fault (Parse; DESIGN.md §9 has the
// grammar). A Plan is a seed plus phases; each phase is an ordered list
// of rules, and each rule names a directed link "F:T" ("*" allowed, first
// match wins) and a fault: a link state (cut, one-way cut, black hole,
// latency, throttle), a byte Scenario (truncate, reset, fragment,
// coalesce, corrupt, garbage, stall, …; "all" rotates the built-in grid),
// or both.
//
// An Injector runs one plan. It mounts on a dialer, a listener, a
// DialContext or an HTTP Transport, each naming its own endpoint, so
// every connection it wraps is a link (from, to). The wrapper, Conn,
// fixes its byte scenario and a per-connection RNG when it is wrapped —
// seeded from (plan seed, link, connection index), so which connection is
// truncated where, which bytes are corrupted with which mask and what
// garbage is prepended is a pure function of the seed and each link's
// wrap order (Injector.Schedule records it). It re-reads the link state
// on every operation, so a phase change (Advance, or the wall clock after
// Start) cuts, slows or heals live connections. Injector.Stats counts
// what fired per link, and MountMetrics exports the sums as faultnet_*
// metrics.
//
// Byte faults are applied on the wrapped side only; the peer sees
// ordinary (if hostile-looking) traffic. Write-side faults mangle what
// the wrapped endpoint sends; read-side faults mangle what it receives.
// Stalls, delays and black holes respect both the connection's deadlines
// and Close, so a probe's own timeout machinery — not the fault layer —
// decides when a stalled exchange dies.
//
// Network is the hermetic transport the injector composes with: an
// in-memory internet of named origins over net.Pipe, with Intercepted
// placing a proxy on the client's path (Figure 3's topology).
// TestFaultMatrix at the repo root drives the scenario grid through both
// the raw-probe and interceptor planes, and TestClusterChaosMatrix drives
// link and byte faults through a 3-node cluster. DESIGN.md §9 and §13
// document the architecture.
package faultnet
