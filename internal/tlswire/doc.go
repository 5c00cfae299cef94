// Package tlswire implements the subset of the TLS 1.0–1.2 wire protocol
// that the paper's measurement tool exercises: the record layer, the
// ClientHello, and the plaintext server flight (ServerHello, Certificate,
// ServerHelloDone), plus alerts. It is the wire substrate of the
// measurement plane in DESIGN.md §1's plane map — both ends of every probe
// in this repository speak through it.
//
// The original tool was written in ActionScript against Flash 9's raw
// Socket API precisely because no browser API exposed certificates; it
// performed a partial handshake and aborted after the Certificate message
// (§3.2). This package is the Go equivalent, implementing both the client
// side (Probe — the measurement tool and the proxy's own upstream
// handshake) and the server side (Respond — authoritative hosts and the
// client-facing half of every forging proxy), so the full measurement path
// runs over real bytes: loopback TCP in cmd/mitmd and the live-wire smoke,
// or net.Pipe via faultnet.Network.
//
// Parsing follows the decode-into-preallocated-struct discipline: message
// structs are reused across reads and slices alias the read buffer where
// safe, so the hot probe path allocates minimally.
package tlswire
