// Package tlsfof ("TLS: Friend or Foe") is a reproduction of the
// measurement system from "TLS Proxies: Friend or Foe?" (O'Neill, Ruoti,
// Seamons, Zappala — IMC 2016): detection of TLS interception by comparing
// the certificate chain a client actually receives against the chain the
// authoritative server serves.
//
// The package is a facade over the building blocks in internal/:
//
//   - Probe performs the paper's partial TLS handshake (ClientHello →
//     ServerHello/Certificate → abort) and captures the presented chain.
//   - Detect compares a captured chain with the authoritative chain,
//     producing the full mismatch anatomy (§5.2) and the claimed-issuer
//     classification (Tables 5/6).
//   - RunStudy executes complete simulated reproductions of the paper's
//     two AdWords measurement studies and returns the populated
//     measurement store behind every table and figure. Each campaign
//     fills a private store and one deterministic merge joins them;
//     StudyConfig.Shards > 1 only runs the campaigns concurrently —
//     identical tables and exports either way.
//   - WriteTable renders any of the paper's evaluation tables from a study
//     result.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// simulation substitutions, and EXPERIMENTS.md for paper-vs-measured
// results.
package tlsfof
