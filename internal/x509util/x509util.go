// Package x509util provides the certificate-handling primitives shared by
// the measurement tool, the reporting server, and the analysis pipeline:
// chain fingerprints, the concatenated-PEM wire format the tool POSTs, chain
// equality, and structured "mismatch anatomy" describing exactly how a
// substitute certificate differs from the authoritative one (§5 of the
// paper).
package x509util

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"fmt"
)

// ChainFingerprint fingerprints an entire chain: the SHA-256 of the
// concatenated per-certificate fingerprints. Two chains match iff they
// contain byte-identical certificates in the same order.
func ChainFingerprint(chainDER [][]byte) string {
	h := sha256.New()
	for _, der := range chainDER {
		sum := sha256.Sum256(der)
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ChainsEqual reports whether two DER chains are byte-identical.
func ChainsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// EncodeChainPEM concatenates a DER chain into the PEM wire format the
// measurement tool POSTs to the reporting server ("All certificate data, in
// PEM format, is concatenated and then sent as an HTTP POST request", §3.2).
func EncodeChainPEM(chainDER [][]byte) []byte {
	var buf bytes.Buffer
	for _, der := range chainDER {
		pem.Encode(&buf, &pem.Block{Type: "CERTIFICATE", Bytes: der})
	}
	return buf.Bytes()
}

// DecodeChainPEM splits concatenated PEM back into a DER chain, skipping
// non-certificate blocks. It is the reporting server's inverse of
// EncodeChainPEM and must tolerate hostile input.
func DecodeChainPEM(data []byte) ([][]byte, error) {
	var chain [][]byte
	rest := data
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		if block.Type != "CERTIFICATE" {
			continue
		}
		chain = append(chain, block.Bytes)
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("x509util: no certificates in %d bytes of PEM", len(data))
	}
	return chain, nil
}

// ParseChain parses every certificate in a DER chain.
func ParseChain(chainDER [][]byte) ([]*x509.Certificate, error) {
	certs := make([]*x509.Certificate, 0, len(chainDER))
	for i, der := range chainDER {
		c, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, fmt.Errorf("x509util: chain[%d]: %w", i, err)
		}
		certs = append(certs, c)
	}
	return certs, nil
}

// PublicKeyBits returns the RSA modulus size in bits, or 0 for non-RSA keys.
// The paper's key-strength analysis (§5.2) is defined over RSA sizes.
func PublicKeyBits(cert *x509.Certificate) int {
	if pk, ok := cert.PublicKey.(*rsa.PublicKey); ok {
		return pk.Size() * 8
	}
	return 0
}

// IssuerOrganization returns the first Issuer Organization value, or ""
// when the field is null/absent — the condition §5.1 tallies separately
// (829 certificates in the first study).
func IssuerOrganization(cert *x509.Certificate) string {
	if len(cert.Issuer.Organization) == 0 {
		return ""
	}
	return cert.Issuer.Organization[0]
}

// Mismatch is the structured anatomy of how an observed chain differs from
// the authoritative chain for the same probe. It drives every row of the
// paper's negligent-behavior analysis.
type Mismatch struct {
	// Proxied is true when the chains differ at all.
	Proxied bool

	// LeafKeyBits / OriginalKeyBits capture key-strength changes
	// (half of all substitute certs downgraded 2048→1024).
	LeafKeyBits     int
	OriginalKeyBits int

	// SignatureAlgorithm of the substitute leaf.
	SignatureAlgorithm x509.SignatureAlgorithm

	// MD5Signed and WeakKey flag §5.2 conditions.
	MD5Signed bool
	WeakKey   bool // < 2048 bits

	// IssuerCopied is true when the substitute claims the authoritative
	// chain's issuer but the signature does not verify against it.
	IssuerCopied bool

	// SubjectDrift is true when the substitute subject no longer matches
	// the probed hostname (wildcarded IPs, wrong domains; 110 certs).
	SubjectDrift bool

	// IssuerOrganization of the substitute leaf ("" = null issuer).
	IssuerOrganization string
	IssuerCommonName   string

	// ChainLength of the substitute chain.
	ChainLength int
}

// CompareChains computes the mismatch anatomy between the authoritative
// chain and an observed chain for the given probed hostname. original and
// observed are parsed leaf-first chains; both must be non-empty.
func CompareChains(hostname string, original, observed []*x509.Certificate, originalDER, observedDER [][]byte) (Mismatch, error) {
	if len(original) == 0 || len(observed) == 0 {
		return Mismatch{}, fmt.Errorf("x509util: empty chain (original=%d observed=%d)", len(original), len(observed))
	}
	m := Mismatch{
		Proxied:            !ChainsEqual(originalDER, observedDER),
		LeafKeyBits:        PublicKeyBits(observed[0]),
		OriginalKeyBits:    PublicKeyBits(original[0]),
		SignatureAlgorithm: observed[0].SignatureAlgorithm,
		IssuerOrganization: IssuerOrganization(observed[0]),
		IssuerCommonName:   observed[0].Issuer.CommonName,
		ChainLength:        len(observed),
	}
	if !m.Proxied {
		return m, nil
	}
	m.MD5Signed = observed[0].SignatureAlgorithm == x509.MD5WithRSA
	m.WeakKey = m.LeafKeyBits > 0 && m.LeafKeyBits < 2048

	// Issuer copied: observed leaf claims the same issuer as the original
	// leaf, yet is not actually signed by the original's issuer cert.
	if observed[0].Issuer.String() == original[0].Issuer.String() {
		copied := true
		if len(original) > 1 {
			if err := observed[0].CheckSignatureFrom(original[1]); err == nil {
				copied = false
			}
		}
		m.IssuerCopied = copied
	}

	if hostname != "" {
		if err := observed[0].VerifyHostname(hostname); err != nil {
			m.SubjectDrift = true
		}
	}
	return m, nil
}
