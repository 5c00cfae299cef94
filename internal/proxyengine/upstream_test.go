package proxyengine

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/tlswire"
)

// auditNow is a clock inside the default certgen validity window, matching
// the battery's fixed clock.
func auditNow() time.Time { return certgen.DefaultNotBefore.AddDate(0, 6, 0) }

// selfSignedLeaf mints a lone self-signed end-entity cert for host.
func selfSignedLeaf(t testing.TB, host string) *x509.Certificate {
	t.Helper()
	key, err := certgen.DefaultPool.Get(1024)
	if err != nil {
		t.Fatal(err)
	}
	der, err := certgen.Issue(certgen.Template{
		Subject:  pkix.Name{CommonName: host},
		DNSNames: []string{host},
	}, &key.PublicKey, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestClassifyUpstreamChain(t *testing.T) {
	trusted, good := authSetup(t, "clean.example")
	roots := trusted.CertPool()
	now := auditNow()

	t.Run("clean", func(t *testing.T) {
		s := ClassifyUpstreamChain("clean.example", parsed(t, good.ChainDER), roots, now, nil)
		if !s.Empty() {
			t.Fatalf("clean chain classified %v", s)
		}
		if s.String() != "clean" {
			t.Fatalf("String() = %q", s.String())
		}
	})

	t.Run("expired", func(t *testing.T) {
		leaf, err := trusted.IssueLeaf(certgen.LeafConfig{
			CommonName: "expired.example",
			NotBefore:  certgen.DefaultNotBefore,
			NotAfter:   certgen.DefaultNotBefore.AddDate(0, 1, 0), // dead by +6mo
		})
		if err != nil {
			t.Fatal(err)
		}
		s := ClassifyUpstreamChain("expired.example", parsed(t, leaf.ChainDER), roots, now, nil)
		if s != (DefectSet(0).Add(DefectExpired)) {
			t.Fatalf("expired chain classified %v", s)
		}
	})

	t.Run("wrong-name", func(t *testing.T) {
		_, other := authSetup(t, "other.example")
		// Signed by an untrusted root AND the wrong name; both axes must
		// be flagged independently.
		s := ClassifyUpstreamChain("wanted.example", parsed(t, other.ChainDER), roots, now, nil)
		if !s.Has(DefectWrongName) || !s.Has(DefectUntrustedRoot) {
			t.Fatalf("wrong-name+untrusted classified %v", s)
		}
		// Right name under its own root: only wrong-name clears.
		okChain, err := trusted.IssueLeaf(certgen.LeafConfig{CommonName: "elsewhere.example"})
		if err != nil {
			t.Fatal(err)
		}
		s = ClassifyUpstreamChain("wanted.example", parsed(t, okChain.ChainDER), roots, now, nil)
		if s != (DefectSet(0).Add(DefectWrongName)) {
			t.Fatalf("wrong-name-only chain classified %v", s)
		}
	})

	t.Run("self-signed", func(t *testing.T) {
		leaf := selfSignedLeaf(t, "selfsigned.example")
		s := ClassifyUpstreamChain("selfsigned.example", []*x509.Certificate{leaf}, roots, now, nil)
		if s != (DefectSet(0).Add(DefectSelfSigned)) {
			t.Fatalf("self-signed chain classified %v (want self-signed only, not untrusted)", s)
		}
	})

	t.Run("untrusted-root", func(t *testing.T) {
		_, rogue := authSetup(t, "victim.example")
		s := ClassifyUpstreamChain("victim.example", parsed(t, rogue.ChainDER), roots, now, nil)
		if s != (DefectSet(0).Add(DefectUntrustedRoot)) {
			t.Fatalf("rogue-root chain classified %v", s)
		}
		// With no trust store the axis is not assessable.
		s = ClassifyUpstreamChain("victim.example", parsed(t, rogue.ChainDER), nil, now, nil)
		if !s.Empty() {
			t.Fatalf("rootless classification = %v", s)
		}
	})

	t.Run("expired-does-not-shadow-trust", func(t *testing.T) {
		// An expired chain from the TRUSTED root must be expired-only: the
		// untrusted check clamps its clock into the leaf window.
		leaf, err := trusted.IssueLeaf(certgen.LeafConfig{
			CommonName: "expired.example",
			NotBefore:  certgen.DefaultNotBefore,
			NotAfter:   certgen.DefaultNotBefore.AddDate(0, 1, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := ClassifyUpstreamChain("expired.example", parsed(t, leaf.ChainDER), roots, now, nil)
		if s.Has(DefectUntrustedRoot) {
			t.Fatalf("expiry shadowed the trust verdict: %v", s)
		}
	})

	t.Run("revoked", func(t *testing.T) {
		serial := big.NewInt(0xBADC0FFEE)
		key, err := certgen.DefaultPool.Get(1024)
		if err != nil {
			t.Fatal(err)
		}
		der, err := certgen.Issue(certgen.Template{
			Subject:      pkix.Name{CommonName: "revoked.example"},
			DNSNames:     []string{"revoked.example"},
			SerialNumber: serial,
		}, &key.PublicKey, trusted.Key, trusted.DER)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		hook := func(c *x509.Certificate) bool { return c.SerialNumber.Cmp(serial) == 0 }
		s := ClassifyUpstreamChain("revoked.example", []*x509.Certificate{cert, trusted.Cert}, roots, now, hook)
		if s != (DefectSet(0).Add(DefectRevoked)) {
			t.Fatalf("revoked chain classified %v", s)
		}
	})

	t.Run("empty-chain", func(t *testing.T) {
		s := ClassifyUpstreamChain("x.example", nil, roots, now, nil)
		if !s.Has(DefectUntrustedRoot) {
			t.Fatalf("empty chain classified %v", s)
		}
	})
}

func TestDefectSetStringAndNames(t *testing.T) {
	s := DefectSet(0).Add(DefectExpired).Add(DefectRevoked)
	if got := s.String(); got != "expired+revoked" {
		t.Fatalf("String() = %q", got)
	}
	seen := map[string]bool{}
	for d := UpstreamDefect(0); int(d) < NumUpstreamDefects; d++ {
		name := d.String()
		if name == "defect(?)" || name == "clean" || seen[name] {
			t.Fatalf("defect %d has name %q: want a distinct canonical name", d, name)
		}
		seen[name] = true
	}
	if UpstreamDefect(200).String() != "defect(?)" {
		t.Fatal("out-of-range String")
	}
}

func TestUpstreamPolicyOffers(t *testing.T) {
	var pol UpstreamPolicy
	if v := pol.OfferVersion(tlswire.VersionTLS10); v != tlswire.VersionTLS12 {
		t.Fatalf("zero policy offered %04x", v)
	}
	pol.MaxVersion = tlswire.VersionTLS10
	if v := pol.OfferVersion(tlswire.VersionTLS12); v != tlswire.VersionTLS10 {
		t.Fatalf("downgrade policy offered %04x", v)
	}
	pol = UpstreamPolicy{RelayClientVersion: true}
	if v := pol.OfferVersion(tlswire.VersionTLS10); v != tlswire.VersionTLS10 {
		t.Fatalf("relay policy offered %04x", v)
	}
	if v := pol.OfferVersion(0); v != tlswire.VersionTLS12 {
		t.Fatalf("relay with unknown client offered %04x", v)
	}

	weakOK := UpstreamPolicy{}
	for _, id := range weakOK.OfferCiphers() {
		if id == tlswire.TLSRSAWithRC4128SHA {
			goto hasWeak
		}
	}
	t.Fatal("default offer lost RC4")
hasWeak:
	strong := UpstreamPolicy{StrongCiphersOnly: true}
	for _, id := range strong.OfferCiphers() {
		if tlswire.WeakCipherSuite(id) {
			t.Fatalf("strong offer contains weak suite %04x", id)
		}
	}
}

func TestDefaultUpstreamPolicyMapping(t *testing.T) {
	bd := DefaultUpstreamPolicy(classify.ProductByName("Bitdefender"))
	for d := UpstreamDefect(0); int(d) < NumUpstreamDefects; d++ {
		if !bd.Reject[d] {
			t.Fatalf("Bitdefender accepts %v", d)
		}
	}
	if !bd.StrongCiphersOnly || bd.MaxVersion != tlswire.VersionTLS12 {
		t.Fatalf("Bitdefender negotiation policy: %+v", bd)
	}

	ku := DefaultUpstreamPolicy(classify.ProductByName("Kurupira.NET"))
	if !ku.Validate {
		t.Fatal("Kurupira does not validate")
	}
	for d := UpstreamDefect(0); int(d) < NumUpstreamDefects; d++ {
		if ku.Reject[d] {
			t.Fatalf("Kurupira rejects %v (must mask)", d)
		}
	}

	malware := DefaultUpstreamPolicy(classify.ProductByName("IopFailZeroAccessCreate"))
	if malware.Validate {
		t.Fatal("malware cohort validates")
	}
	if malware.MaxVersion != tlswire.VersionTLS10 {
		t.Fatalf("malware MaxVersion = %04x", malware.MaxVersion)
	}

	org := DefaultUpstreamPolicy(&classify.Product{Name: "Corp", Category: classify.Organization})
	if !org.RelayClientVersion || !org.Reject[DefectUntrustedRoot] || org.Reject[DefectExpired] {
		t.Fatalf("organization policy: %+v", org)
	}
}

func TestDecidePerDefectReject(t *testing.T) {
	trusted, _ := authSetup(t, "unused.example")
	_, rogue := authSetup(t, "site.example")
	now := auditNow

	// Rejects untrusted-root: the rogue chain must block.
	profile := Profile{ProductName: "PerDefect", IssuerOrg: "PerDefect"}
	profile.UpstreamRoots = trusted.CertPool()
	profile.Upstream.Validate = true
	profile.Upstream.Reject[DefectUntrustedRoot] = true
	e, err := New(profile, Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Decide("site.example", parsed(t, rogue.ChainDER), rogue.ChainDER)
	if err != ErrUpstreamInvalid || d.Action != ActionBlock {
		t.Fatalf("untrusted not rejected: %+v, %v", d, err)
	}
	if !d.Defects.Has(DefectUntrustedRoot) {
		t.Fatalf("defects = %v", d.Defects)
	}

	// Same chain, policy that only rejects EXPIRED: must forge (masked).
	profile.Upstream.Reject = [NumUpstreamDefects]bool{}
	profile.Upstream.Reject[DefectExpired] = true
	e2, err := New(profile, Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	d, err = e2.Decide("site.example", parsed(t, rogue.ChainDER), rogue.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionIntercept || !d.Masked || d.UpstreamValid {
		t.Fatalf("accepting profile misrecorded: %+v", d)
	}
	if !d.Defects.Has(DefectUntrustedRoot) || d.Defects.Has(DefectExpired) {
		t.Fatalf("defects = %v", d.Defects)
	}
}
