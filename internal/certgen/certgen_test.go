package certgen

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"testing"
	"time"
)

func testRoot(t *testing.T) *CA {
	t.Helper()
	ca, err := NewRootCA(CAConfig{
		Subject: pkix.Name{CommonName: "Test Root", Organization: []string{"Test Org"}},
		KeyBits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestRootCARoundTrip(t *testing.T) {
	ca := testRoot(t)
	if !ca.Cert.IsCA {
		t.Error("root is not marked CA")
	}
	if ca.Cert.Subject.CommonName != "Test Root" {
		t.Errorf("subject CN = %q", ca.Cert.Subject.CommonName)
	}
	if ca.Cert.Issuer.CommonName != "Test Root" {
		t.Errorf("self-signed issuer CN = %q", ca.Cert.Issuer.CommonName)
	}
	if err := ca.Cert.CheckSignatureFrom(ca.Cert); err != nil {
		t.Errorf("self-signature does not verify: %v", err)
	}
}

func TestLeafVerifiesAgainstRoot(t *testing.T) {
	ca := testRoot(t)
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "tlsresearch.byu.edu",
		KeyBits:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := x509.VerifyOptions{
		Roots:       ca.CertPool(),
		CurrentTime: DefaultNotBefore.AddDate(0, 1, 0),
	}
	if _, err := leaf.Cert.Verify(opts); err != nil {
		t.Fatalf("leaf does not verify: %v", err)
	}
	if got := leaf.Cert.DNSNames; len(got) != 1 || got[0] != "tlsresearch.byu.edu" {
		t.Errorf("DNSNames = %v", got)
	}
	if leaf.Cert.Issuer.Organization[0] != "Test Org" {
		t.Errorf("issuer O = %v", leaf.Cert.Issuer.Organization)
	}
}

func TestMD5Certificate(t *testing.T) {
	// The paper found 23 substitute certificates signed with MD5 (§5.2).
	// stdlib CreateCertificate refuses MD5; our builder must not.
	ca, err := NewRootCA(CAConfig{
		Subject: pkix.Name{CommonName: "MD5 Root"},
		KeyBits: 512,
		SigAlg:  MD5WithRSA,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "victim.example.com",
		KeyBits:    512,
		SigAlg:     MD5WithRSA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Cert.SignatureAlgorithm != x509.MD5WithRSA {
		t.Fatalf("signature algorithm = %v, want MD5WithRSA", leaf.Cert.SignatureAlgorithm)
	}
	if size := leaf.Cert.PublicKey.(interface{ Size() int }).Size() * 8; size != 512 {
		t.Fatalf("key size = %d, want 512", size)
	}
	// Verification must fail (browsers rejected MD5 by the study period,
	// and Go refuses MD5 signatures) — but parsing must succeed, which is
	// exactly the asymmetry the measurement tool relies on.
	if err := leaf.Cert.CheckSignatureFrom(ca.Cert); err == nil {
		t.Error("MD5 signature unexpectedly verified")
	}
}

func TestSHA1Certificate(t *testing.T) {
	ca := testRoot(t)
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "sha1.example.com",
		KeyBits:    1024,
		SigAlg:     SHA1WithRSA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Cert.SignatureAlgorithm != x509.SHA1WithRSA {
		t.Fatalf("signature algorithm = %v, want SHA1WithRSA", leaf.Cert.SignatureAlgorithm)
	}
}

func TestWeakKeySizes(t *testing.T) {
	// §5.2: 50.59% of substitute certs downgraded to 1024-bit, 21 to
	// 512-bit, 7 upgraded to 2432-bit.
	ca := testRoot(t)
	for _, bits := range []int{512, 1024, 2432} {
		leaf, err := ca.IssueLeaf(LeafConfig{
			CommonName: "weak.example.com",
			KeyBits:    bits,
		})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if size := leaf.Key.PublicKey.Size() * 8; size != bits {
			t.Errorf("key size = %d, want %d", size, bits)
		}
	}
}

func TestForgedIssuerName(t *testing.T) {
	// §5.2: 49 substitute certificates claim DigiCert as issuer but are
	// not signed by DigiCert.
	ca := testRoot(t)
	digicert := pkix.Name{
		CommonName:   "DigiCert High Assurance CA-3",
		Organization: []string{"DigiCert Inc"},
	}
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "tlsresearch.byu.edu",
		Issuer:     &digicert,
		KeyBits:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := leaf.Cert.Issuer.Organization; len(got) != 1 || got[0] != "DigiCert Inc" {
		t.Fatalf("forged issuer O = %v", got)
	}
	// The claim is a lie: the signature must NOT verify against a cert
	// whose name matches, and must not chain to the forging CA by name.
	if err := leaf.Cert.CheckSignatureFrom(ca.Cert); err == nil {
		// Signature bytes are genuinely from ca.Key, but issuer-name
		// mismatch makes chain building fail in Verify below.
		opts := x509.VerifyOptions{Roots: ca.CertPool(), CurrentTime: DefaultNotBefore.AddDate(0, 1, 0)}
		if _, err := leaf.Cert.Verify(opts); err == nil {
			t.Fatal("forged-issuer cert chains cleanly; expected name-chaining failure")
		}
	}
}

func TestNullIssuerOrganization(t *testing.T) {
	// §5.1: 829 substitute certificates carried a null Issuer
	// Organization.
	ca, err := NewRootCA(CAConfig{
		Subject: pkix.Name{CommonName: "anonymous"},
		KeyBits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(LeafConfig{CommonName: "x.example.com", KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.Cert.Issuer.Organization) != 0 {
		t.Fatalf("issuer O = %v, want absent", leaf.Cert.Issuer.Organization)
	}
}

func TestEmptyIssuerEntirely(t *testing.T) {
	key, err := DefaultPool.Get(1024)
	if err != nil {
		t.Fatal(err)
	}
	der, err := Issue(Template{
		Subject: pkix.Name{CommonName: "blank-issuer.example"},
		Issuer:  &pkix.Name{},
	}, &key.PublicKey, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Issuer.String() != "" {
		t.Fatalf("issuer = %q, want blank", cert.Issuer.String())
	}
}

func TestWrongDomainSubject(t *testing.T) {
	// §5.2: substitute certs issued to mail.google.com / urs.microsoft.com
	// instead of the probed site.
	ca := testRoot(t)
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "mail.google.com",
		DNSNames:   []string{"mail.google.com"},
		KeyBits:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.Cert.VerifyHostname("tlsresearch.byu.edu"); err == nil {
		t.Fatal("hostname verification should fail for wrong-domain subject")
	}
	if err := leaf.Cert.VerifyHostname("mail.google.com"); err != nil {
		t.Fatalf("hostname verification failed for own domain: %v", err)
	}
}

func TestSerialNumberExplicit(t *testing.T) {
	ca := testRoot(t)
	key, err := DefaultPool.Get(512)
	if err != nil {
		t.Fatal(err)
	}
	der, err := Issue(Template{
		Subject:      pkix.Name{CommonName: "serial.example"},
		SerialNumber: big.NewInt(424242),
	}, &key.PublicKey, ca.Key, ca.DER)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if cert.SerialNumber.Int64() != 424242 {
		t.Fatalf("serial = %v", cert.SerialNumber)
	}
}

// TestSerialNumberDerived: a nil serial is a positive 63-bit function of
// the rest of the certificate, so issuing twice signs equal bytes and a
// certificate that says anything else gets another serial.
func TestSerialNumberDerived(t *testing.T) {
	ca := testRoot(t)
	key, err := DefaultPool.Get(512)
	if err != nil {
		t.Fatal(err)
	}
	issue := func(cn string) *x509.Certificate {
		t.Helper()
		der, err := Issue(Template{Subject: pkix.Name{CommonName: cn}}, &key.PublicKey, ca.Key, ca.DER)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Issue(Template{Subject: pkix.Name{CommonName: cn}}, &key.PublicKey, ca.Key, ca.DER)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(der, again) {
			t.Fatalf("%s: two issues of one template differ", cn)
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		if cert.SerialNumber.Sign() <= 0 || cert.SerialNumber.BitLen() > 63 {
			t.Fatalf("%s: serial %v, want a positive 63-bit number", cn, cert.SerialNumber)
		}
		return cert
	}
	if a, b := issue("a.example"), issue("b.example"); a.SerialNumber.Cmp(b.SerialNumber) == 0 {
		t.Fatalf("two subjects share serial %v", a.SerialNumber)
	}
}

func TestValidityWindow(t *testing.T) {
	ca := testRoot(t)
	nb := time.Date(2014, 10, 8, 0, 0, 0, 0, time.UTC)
	na := time.Date(2015, 10, 8, 0, 0, 0, 0, time.UTC)
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "window.example",
		NotBefore:  nb,
		NotAfter:   na,
		KeyBits:    512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.Cert.NotBefore.Equal(nb) || !leaf.Cert.NotAfter.Equal(na) {
		t.Fatalf("validity = [%v, %v]", leaf.Cert.NotBefore, leaf.Cert.NotAfter)
	}
}

func TestInvertedValidityRejected(t *testing.T) {
	ca := testRoot(t)
	_, err := ca.IssueLeaf(LeafConfig{
		CommonName: "backwards.example",
		NotBefore:  time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyBits:    512,
	})
	if err == nil {
		t.Fatal("inverted validity accepted")
	}
}

func TestOmitSKIAndBasicConstraints(t *testing.T) {
	ca := testRoot(t)
	leaf, err := ca.IssueLeaf(LeafConfig{
		CommonName: "minimal.example",
		KeyBits:    512,
		OmitSKI:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Cert.SubjectKeyId != nil {
		t.Error("SKI present despite OmitSKI")
	}
}

func TestKeyPoolRoundRobin(t *testing.T) {
	pool := NewKeyPool(2, nil)
	k1, err := pool.Get(512)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := pool.Get(512)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("pool returned same key before reaching capacity")
	}
	k3, err := pool.Get(512)
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 && k3 != k2 {
		t.Fatal("pool generated beyond capacity")
	}
}

func TestKeyPoolNamedSharedKey(t *testing.T) {
	pool := NewKeyPool(1, nil)
	a, err := pool.Named("IopFailZeroAccessCreate", 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Named("IopFailZeroAccessCreate", 1024) // bits ignored on hit
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("named key not stable")
	}
	if a.PublicKey.Size()*8 != 512 {
		t.Fatalf("named key size = %d", a.PublicKey.Size()*8)
	}
}

// TestKeyPoolRejectsTinyKeys: pool and named keys share one floor.
func TestKeyPoolRejectsTinyKeys(t *testing.T) {
	if _, err := DefaultPool.Get(256); err == nil {
		t.Fatal("256-bit key accepted")
	}
	if _, err := DefaultPool.Named("x", 256); err == nil {
		t.Fatal("256-bit named key accepted")
	}
}

func TestPEMEncoding(t *testing.T) {
	ca := testRoot(t)
	pemBytes := ca.PEM()
	if len(pemBytes) == 0 {
		t.Fatal("empty PEM")
	}
	if string(pemBytes[:27]) != "-----BEGIN CERTIFICATE-----" {
		t.Fatalf("bad PEM header: %q", pemBytes[:27])
	}
}

func BenchmarkIssueLeaf1024(b *testing.B) {
	ca, err := NewRootCA(CAConfig{
		Subject: pkix.Name{CommonName: "Bench Root"},
		KeyBits: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.IssueLeaf(LeafConfig{CommonName: "bench.example", KeyBits: 1024}); err != nil {
			b.Fatal(err)
		}
	}
}
