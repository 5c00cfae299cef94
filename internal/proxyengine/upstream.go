package proxyengine

import (
	"bytes"
	"crypto/x509"
	"strings"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/tlswire"
)

// UpstreamDefect identifies one class of origin-certificate defect on the
// proxy's origin-facing leg — the "end-to-me" validation axes Waked et al.
// graded enterprise interception appliances on. The paper's §5.2 only
// grades what forgeries look like; these defects grade what the proxy is
// willing to *accept* from the origin before forging.
type UpstreamDefect uint8

const (
	// DefectExpired: the origin leaf is outside its validity window.
	DefectExpired UpstreamDefect = iota
	// DefectSelfSigned: the origin presented a lone self-signed leaf.
	DefectSelfSigned
	// DefectWrongName: the origin leaf does not name the probed host.
	DefectWrongName
	// DefectUntrustedRoot: the chain does not terminate in the proxy's
	// trust store (a rogue CA — the attacker case).
	DefectUntrustedRoot
	// DefectRevoked: the leaf is on the proxy's revocation list. There is
	// no OCSP/CRL plane in the reproduction; the policy's Revoked hook is
	// the placeholder a real responder would fill.
	DefectRevoked

	// NumUpstreamDefects sizes per-defect arrays.
	NumUpstreamDefects = int(DefectRevoked) + 1
)

// upstreamDefectNames are the canonical wire/table names, index-aligned
// with the constants (store.AuditDefects mirrors them after "clean").
var upstreamDefectNames = [NumUpstreamDefects]string{
	"expired", "self-signed", "wrong-name", "untrusted-root", "revoked",
}

// String names the defect ("expired", "self-signed", ...).
func (d UpstreamDefect) String() string {
	if int(d) < len(upstreamDefectNames) {
		return upstreamDefectNames[d]
	}
	return "defect(?)"
}

// DefectSet is a bitmask of UpstreamDefects observed on one chain.
type DefectSet uint8

// Add returns the set with d included.
func (s DefectSet) Add(d UpstreamDefect) DefectSet { return s | 1<<d }

// Has reports whether d is in the set.
func (s DefectSet) Has(d UpstreamDefect) bool { return s&(1<<d) != 0 }

// Empty reports a defect-free (clean) chain.
func (s DefectSet) Empty() bool { return s == 0 }

// String renders the set as "+"-joined canonical names ("clean" when
// empty), in constant order — deterministic for tables and logs.
func (s DefectSet) String() string {
	if s.Empty() {
		return "clean"
	}
	var parts []string
	for d := UpstreamDefect(0); int(d) < NumUpstreamDefects; d++ {
		if s.Has(d) {
			parts = append(parts, d.String())
		}
	}
	return strings.Join(parts, "+")
}

// UpstreamPolicy is a profile's origin-facing stance: which chain defects
// it tolerates, and how it negotiates the upstream handshake. The zero
// value is the sloppy-product default — no validation, TLS 1.2 offered,
// full legacy cipher list.
type UpstreamPolicy struct {
	// Validate records that the product inspects the origin chain at
	// all. The engine performs the inspection only when the deployment
	// installs a trust store (Profile.UpstreamRoots) — classification
	// without an anchor is meaningless, and legacy deployments without
	// one keep their exact pre-policy behavior.
	Validate bool

	// Reject, indexed by UpstreamDefect, refuses the connection when the
	// origin chain exhibits that defect. An unset entry accepts the
	// defect: the proxy forges a trusted substitute for a broken origin,
	// which is exactly the failure Waked et al. graded appliances on.
	Reject [NumUpstreamDefects]bool

	// Revoked is the revocation-check placeholder: when non-nil it is
	// consulted with the origin leaf and a true return marks
	// DefectRevoked. A real product would ask OCSP/CRL here.
	Revoked func(leaf *x509.Certificate) bool

	// MaxVersion is the highest TLS version the proxy offers on the
	// origin leg (0 = TLS 1.2). Products that hardcode an old library
	// silently downgrade every client behind them.
	MaxVersion uint16

	// RelayClientVersion offers min(client's version, MaxVersion)
	// upstream instead of always MaxVersion — the faithful behavior.
	RelayClientVersion bool

	// StrongCiphersOnly drops RC4/3DES from the upstream offer
	// (tlswire.StrongCipherSuites); unset offers the full 2014-era list
	// including weak suites.
	StrongCiphersOnly bool
}

// RejectAll returns pol with every defect rejected.
func (pol UpstreamPolicy) RejectAll() UpstreamPolicy {
	pol.Validate = true
	for i := range pol.Reject {
		pol.Reject[i] = true
	}
	return pol
}

// RejectedBy returns the subset of s the policy refuses.
func (s DefectSet) RejectedBy(pol UpstreamPolicy) DefectSet {
	var out DefectSet
	for d := UpstreamDefect(0); int(d) < NumUpstreamDefects; d++ {
		if s.Has(d) && pol.Reject[d] {
			out = out.Add(d)
		}
	}
	return out
}

// OfferVersion resolves the TLS version the proxy offers upstream for a
// client that offered clientVersion (0 = unknown).
func (pol UpstreamPolicy) OfferVersion(clientVersion uint16) uint16 {
	max := pol.MaxVersion
	if max == 0 {
		max = tlswire.VersionTLS12
	}
	if pol.RelayClientVersion && clientVersion != 0 && clientVersion < max {
		return clientVersion
	}
	return max
}

// OfferCiphers resolves the upstream cipher offer.
func (pol UpstreamPolicy) OfferCiphers() []uint16 {
	if pol.StrongCiphersOnly {
		return tlswire.StrongCipherSuites
	}
	return tlswire.DefaultCipherSuites
}

// ClassifyUpstreamChain derives the defect set of one origin chain
// (leaf-first, parsed) as presented for host at time now. roots is the
// proxy's trust store; when nil the untrusted-root axis is not assessed
// (the proxy has nothing to anchor trust to). revoked is the optional
// revocation hook. The function is pure and total: any parsed chain in,
// a verdict out, no panics — FuzzUpstreamChainVerdict holds it to that.
func ClassifyUpstreamChain(host string, chain []*x509.Certificate, roots *x509.CertPool, now time.Time, revoked func(*x509.Certificate) bool) DefectSet {
	var s DefectSet
	if len(chain) == 0 || chain[0] == nil {
		// Nothing presented: there is no leaf to pin trust or identity
		// to; the closest axis is an untrusted origin.
		return s.Add(DefectUntrustedRoot)
	}
	leaf := chain[0]

	if now.Before(leaf.NotBefore) || now.After(leaf.NotAfter) {
		s = s.Add(DefectExpired)
	}
	if host != "" && leaf.VerifyHostname(host) != nil {
		s = s.Add(DefectWrongName)
	}
	selfSigned := len(chain) == 1 && bytes.Equal(leaf.RawIssuer, leaf.RawSubject)
	if selfSigned {
		// A self-signed leaf is its own axis; it is deliberately NOT also
		// flagged untrusted-root so a policy can grade the two failure
		// modes independently, as the appliance studies did.
		s = s.Add(DefectSelfSigned)
	} else if roots != nil && !chainsToRoots(chain, roots, now) {
		s = s.Add(DefectUntrustedRoot)
	}
	if revoked != nil && revoked(leaf) {
		s = s.Add(DefectRevoked)
	}
	return s
}

// chainsToRoots reports whether the chain terminates in roots. The
// verification time is clamped into the leaf's own validity window so an
// expired-but-honest chain stays distinguishable from a rogue-root chain:
// expiry is DefectExpired's axis, not this one's.
func chainsToRoots(chain []*x509.Certificate, roots *x509.CertPool, now time.Time) bool {
	leaf := chain[0]
	inter := x509.NewCertPool()
	for _, c := range chain[1:] {
		if c != nil {
			inter.AddCert(c)
		}
	}
	vt := now
	if vt.Before(leaf.NotBefore) {
		vt = leaf.NotBefore.Add(time.Second)
	}
	if vt.After(leaf.NotAfter) {
		vt = leaf.NotAfter.Add(-time.Second)
	}
	_, err := leaf.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: inter,
		CurrentTime:   vt,
	})
	return err == nil
}

// DefaultUpstreamPolicy derives a product's origin-facing stance from the
// classify database record. The per-defect matrix is synthesized from the
// facts the studies established (Bitdefender verifies and rejects,
// Kurupira looks and masks, the malware cohort never validates) extended
// by category along the axes Waked et al. measured; DESIGN.md §15
// documents the mapping. It is deterministic: the audit grid's golden
// fixtures pin every cell it produces.
func DefaultUpstreamPolicy(p *classify.Product) UpstreamPolicy {
	var pol UpstreamPolicy
	pol.MaxVersion = tlswire.VersionTLS12

	switch p.Category {
	case classify.BusinessPersonalFirewall:
		// AV/firewall vendors ship a real validator but commonly tolerate
		// expired origins and skip revocation (the Waked findings).
		pol.Validate = true
		pol.Reject[DefectSelfSigned] = true
		pol.Reject[DefectUntrustedRoot] = true
		pol.Reject[DefectWrongName] = true
		pol.StrongCiphersOnly = true
	case classify.ParentalControl:
		// Filtering products anchor trust but wave through identity and
		// freshness problems.
		pol.Validate = true
		pol.Reject[DefectUntrustedRoot] = true
	case classify.Organization:
		// Corporate middleboxes validate trust and refuse self-signed
		// origins, and relay the client's version faithfully.
		pol.Validate = true
		pol.Reject[DefectSelfSigned] = true
		pol.Reject[DefectUntrustedRoot] = true
		pol.RelayClientVersion = true
		pol.StrongCiphersOnly = true
	case classify.Telecom:
		// Carrier gear: trust-store check only, version relayed.
		pol.Validate = true
		pol.Reject[DefectSelfSigned] = true
		pol.RelayClientVersion = true
	default:
		// Malware, claimed CAs, and the unknown cohort: no validation at
		// all and a hardcoded TLS 1.0 origin stack.
		pol.MaxVersion = tlswire.VersionTLS10
	}

	// Documented per-product facts override the category baseline.
	if p.RejectsInvalidUpstream {
		// Bitdefender: verified to block invalid upstreams outright.
		pol = pol.RejectAll()
		pol.StrongCiphersOnly = true
		pol.MaxVersion = tlswire.VersionTLS12
		pol.RelayClientVersion = false
	}
	if p.MasksInvalidUpstream {
		// Kurupira: validates (the verdict is recorded) but forges a
		// trusted substitute anyway — reject nothing.
		pol.Validate = true
		pol.Reject = [NumUpstreamDefects]bool{}
	}
	if p.BotnetTies || p.SpamAssociated {
		// The botnet/spam cohort runs the cheapest possible client.
		pol = UpstreamPolicy{MaxVersion: tlswire.VersionTLS10}
	}
	return pol
}
