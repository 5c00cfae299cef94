package proxyengine

import (
	"crypto/x509"
	"crypto/x509/pkix"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
)

// SubjectMode selects how the forged certificate's subject is produced.
type SubjectMode int

const (
	// SubjectCopy copies the probed hostname into CN and SAN — the normal
	// proxy behavior.
	SubjectCopy SubjectMode = iota
	// SubjectWildcardIP writes a wildcarded IP subnet instead of the
	// hostname ("In many cases a wildcarded IP address was used that only
	// designated the subnet of our website", §5.2).
	SubjectWildcardIP
	// SubjectWrongDomain writes an unrelated domain (the
	// mail.google.com / urs.microsoft.com cases, §5.2).
	SubjectWrongDomain
)

// Profile describes one proxy deployment's behavior.
type Profile struct {
	// ProductName labels the profile (matches the classify database when
	// derived from it).
	ProductName string

	// IssuerOrg / IssuerCN are written into the signing CA's subject,
	// which becomes every forgery's issuer. Both empty ⇒ the null-issuer
	// cohort.
	IssuerOrg string
	IssuerCN  string

	// KeyBits is the forged-leaf key size (default 1024 — the §5.2
	// majority). SigAlg is the forgery's signature algorithm.
	KeyBits int
	SigAlg  certgen.SigAlg

	// SharedKeyName, when non-empty, makes every forged leaf reuse one
	// named key (IopFailZeroAccessCreate's single 512-bit key).
	SharedKeyName string

	// CopyUpstreamIssuer copies the authoritative chain's issuer name
	// onto the forgery instead of the proxy's own CA name.
	CopyUpstreamIssuer bool

	SubjectMode SubjectMode

	// Whitelist, when non-nil, returns true for hosts the proxy must NOT
	// intercept (pass through untouched).
	Whitelist func(host string) bool

	// UpstreamRoots is the proxy's own trust store for validating
	// upstream chains; nil disables upstream validation entirely (the
	// default for sloppy products).
	UpstreamRoots *x509.CertPool

	// Upstream is the origin-facing stance: per-defect accept/reject,
	// the revocation hook, and version/cipher negotiation behavior. The
	// zero value rejects nothing, so an invalid upstream is forged over
	// and masked (the Kurupira flaw); RejectAll is Bitdefender's verified
	// behavior. FromProduct fills it from DefaultUpstreamPolicy.
	Upstream UpstreamPolicy
}

// FromProduct derives a Profile from a classify product record, translating
// the study's documented facts into mechanism.
func FromProduct(p *classify.Product) Profile {
	prof := Profile{
		ProductName: p.Name,
		IssuerOrg:   p.Name,
		IssuerCN:    p.CommonName,
		KeyBits:     p.KeyBits,
	}
	if prof.IssuerCN == "" && prof.IssuerOrg != "" {
		prof.IssuerCN = prof.IssuerOrg + " CA"
	}
	if p.SharedKey512 {
		prof.SharedKeyName = p.CommonName
		if prof.SharedKeyName == "" {
			prof.SharedKeyName = p.Name
		}
		prof.KeyBits = 512
	}
	if p.MD5 {
		prof.SigAlg = certgen.MD5WithRSA
	}
	if p.UpgradesKey {
		prof.KeyBits = 2432
	}
	if p.CopiesIssuer {
		prof.CopyUpstreamIssuer = true
	}
	if p.WildcardIPSubject {
		prof.SubjectMode = SubjectWildcardIP
	}
	if p.WrongDomainSubject {
		prof.SubjectMode = SubjectWrongDomain
	}
	prof.Upstream = DefaultUpstreamPolicy(p)
	if p.WhitelistsWhales {
		prof.Whitelist = WhaleWhitelist
	}
	return prof
}

// WhaleWhitelist is the whitelist behavior §6.3 infers: "many benevolent
// TLS proxies are configured to ignore extremely popular websites run by
// reputable organizations". The host set mirrors the sites the Netalyzer
// study found whitelisted (Facebook, Twitter, Google properties).
func WhaleWhitelist(host string) bool {
	switch host {
	case "facebook.com", "www.facebook.com",
		"twitter.com", "www.twitter.com",
		"google.com", "www.google.com", "accounts.google.com":
		return true
	}
	return false
}

// caSubject builds the forging CA's subject from the profile's issuer
// fields. Both empty produces a CA whose subject (and therefore every
// forgery's issuer) is entirely blank — the null-issuer cohort.
func (p Profile) caSubject() pkix.Name {
	name := pkix.Name{CommonName: p.IssuerCN}
	if p.IssuerOrg != "" {
		name.Organization = []string{p.IssuerOrg}
	}
	return name
}

// LeafKeyBits resolves the forged-leaf key size, applying the default
// (1024 — the §5.2 majority). It is the single source of truth for what
// the engine mints, so deployments (cmd/mitmd) prewarm the right size.
func (p Profile) LeafKeyBits() int {
	if p.KeyBits == 0 {
		return 1024
	}
	return p.KeyBits
}
