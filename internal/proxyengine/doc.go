// Package proxyengine implements the thing the paper measures: TLS
// intercepting proxies ("TLS proxies", Figure 3). An Engine forges
// substitute certificates for upstream hosts according to a behavior
// Profile; an Interceptor mounts an Engine between real client and server
// connections at the wire level. In the repository's plane map
// (DESIGN.md §1) this package IS the intercepted path — the middlebox the
// measurement plane probes through.
//
// Profiles are mechanical renderings of the product behaviors the study
// documented: which issuer fields a product writes, what key strength it
// mints (§5.2's 1024/512-bit downgrades), whether it copies the
// authoritative issuer ("claims DigiCert"), whether it whitelists
// whale-class sites (§6.3), and how it treats invalid upstream certificates
// (Kurupira masks them; Bitdefender blocks them — §5.2).
//
// The plane is built for concurrency: forged chains live in ForgeCache —
// a host-keyed front over chaincache.LRU, the one bounded, sharded,
// single-flight memo the report path's observation cache also runs on —
// so a storm of simultaneous connections to one origin mints exactly one
// substitute and every client observes identical bytes — the per-origin
// caching real appliances exhibit. The Interceptor's origin memo is a
// third front over the same LRU: the authoritative chain of each origin,
// as served and as parsed, fetched by one upstream handshake and then
// shared read-only by every connection to it. cmd/mitmd mounts this
// engine as a load-bearing proxy with an accept pool and /metrics; see
// DESIGN.md §7 for the interception-plane architecture and `go run -C
// bench . -workload livewire` for its measured cost.
package proxyengine
