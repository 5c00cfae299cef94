// Package mitigate implements the two mitigation families the paper's §7
// survey centers on, as working systems built over this repository's
// probe (see DESIGN.md §1 for where they sit relative to the measurement
// and interception planes):
//
//   - Certificate pinning (trust-on-first-use): remember the key/chain a
//     host presented and alarm when it changes — the Google proposal the
//     paper cites, including its blind spot: "Chrome also trusts any
//     locally installed trusted roots, so benevolent proxies and malware
//     can circumvent the pinning process."
//
//   - Multi-path probing (Perspectives/Convergence/DoubleCheck): ask
//     several network vantage points what certificate they see for the
//     same host and compare with the client's view. A proxy near the
//     client is on none of the notary paths, so the views disagree.
//
// Both mitigations operate purely on observed chains, so they compose with
// in-memory topologies and real sockets alike — a pin store can sit behind
// the same live-wire loop that cmd/mitmd and the probe fleet exercise.
package mitigate
