// Package certgen builds X.509 certificates directly as DER, bypassing
// crypto/x509.CreateCertificate. It is the PKI substrate under every
// plane in DESIGN.md §1: the authoritative roots the measurement plane
// probes, and the forging CAs the interception plane (internal/proxyengine)
// signs substitutes with.
//
// The reproduction needs direct DER control because the paper's field
// study observed substitute certificates that the Go standard library
// refuses to create: 512-bit RSA keys, MD5WithRSA signatures (23
// certificates, §5.2), issuer names copied verbatim from real CAs ("claims
// to be signed by DigiCert, though none of them actually are"), and
// certificates whose Issuer Organization is entirely absent. This package
// can mint all of them, plus ordinary well-formed roots and leaves, so the
// MitM proxy engine can faithfully reproduce every product behavior in the
// paper.
//
// Key material comes from a KeyPool: prime generation is amortized across
// the thousands of leaves a study mints, named keys reproduce shared-key
// malware (§5.1), and — for serving-path deployments like cmd/mitmd —
// Prewarm fills the pool on every core before traffic arrives. Its keys
// come from the package's own prime search (keygen.go): the primes
// crypto/rsa would pick from the same stream, found in variable time.
//
// Parsing of everything produced here is delegated to crypto/x509, which
// accepts (but will not verify) weak algorithms — the same asymmetry
// browsers of the study period exhibited.
package certgen
