package proxyengine

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"net"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

var pool = certgen.NewKeyPool(2, nil)

// authSetup builds an authoritative CA and a leaf for host.
func authSetup(t testing.TB, host string) (*certgen.CA, *certgen.Leaf) {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "GeoTrust Test CA", Organization: []string{"GeoTrust Test"}},
		KeyBits: 1024,
		Pool:    pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 2048, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return ca, leaf
}

func parsed(t testing.TB, chainDER [][]byte) []*x509.Certificate {
	t.Helper()
	chain, err := x509util.ParseChain(chainDER)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

func newEngine(t testing.TB, profile Profile) *Engine {
	t.Helper()
	e, err := New(profile, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestForgeBasicInterception(t *testing.T) {
	_, authLeaf := authSetup(t, "tlsresearch.byu.edu")
	e := newEngine(t, Profile{ProductName: "Bitdefender", IssuerOrg: "Bitdefender", KeyBits: 1024})

	d, err := e.Decide("tlsresearch.byu.edu", parsed(t, authLeaf.ChainDER), authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionIntercept {
		t.Fatalf("action = %v", d.Action)
	}
	if x509util.ChainsEqual(d.ChainDER, authLeaf.ChainDER) {
		t.Fatal("forged chain identical to authoritative chain")
	}
	forged := parsed(t, d.ChainDER)
	if got := x509util.IssuerOrganization(forged[0]); got != "Bitdefender" {
		t.Fatalf("forged issuer O = %q", got)
	}
	if got := x509util.PublicKeyBits(forged[0]); got != 1024 {
		t.Fatalf("forged key bits = %d", got)
	}
	// The forgery must validate against the proxy's injected root — the
	// whole point of root-store injection (§2, Figure 2c).
	opts := x509.VerifyOptions{Roots: e.CA.CertPool(), DNSName: "tlsresearch.byu.edu"}
	if _, err := forged[0].Verify(opts); err != nil {
		t.Fatalf("forgery does not validate against injected root: %v", err)
	}
}

func TestForgeCacheStability(t *testing.T) {
	_, authLeaf := authSetup(t, "repeat.example")
	e := newEngine(t, Profile{IssuerOrg: "CacheCo"})
	d1, err := e.Decide("repeat.example", parsed(t, authLeaf.ChainDER), authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.Decide("repeat.example", parsed(t, authLeaf.ChainDER), authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if !x509util.ChainsEqual(d1.ChainDER, d2.ChainDER) {
		t.Fatal("cache returned different forgeries for same host")
	}
	if e.CacheStats().Size != 1 {
		t.Fatalf("cache size = %d", e.CacheStats().Size)
	}
}

func TestSharedKeyAcrossHosts(t *testing.T) {
	// IopFailZeroAccessCreate: same 512-bit key on every forgery (§5.1).
	product := classify.ProductByName("IopFailZeroAccessCreate")
	if product == nil {
		t.Fatal("product missing")
	}
	e := newEngine(t, FromProduct(product))
	_, leafA := authSetup(t, "a.example")
	_, leafB := authSetup(t, "b.example")
	if _, err := e.Decide("a.example", parsed(t, leafA.ChainDER), leafA.ChainDER); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Decide("b.example", parsed(t, leafB.ChainDER), leafB.ChainDER); err != nil {
		t.Fatal(err)
	}
	ka, kb := e.ForgedLeafKey("a.example"), e.ForgedLeafKey("b.example")
	if ka == nil || kb == nil || ka != kb {
		t.Fatal("shared-key malware minted distinct keys")
	}
	if ka.PublicKey.Size()*8 != 512 {
		t.Fatalf("shared key is %d bits, want 512", ka.PublicKey.Size()*8)
	}
	// Null issuer organization: this product identifies via CN only.
	forged := parsed(t, [][]byte{e.mustChain(t, "a.example")[0]})
	if got := x509util.IssuerOrganization(forged[0]); got != "" {
		t.Fatalf("issuer O = %q, want null", got)
	}
	if forged[0].Issuer.CommonName != "IopFailZeroAccessCreate" {
		t.Fatalf("issuer CN = %q", forged[0].Issuer.CommonName)
	}
}

// mustChain fetches the cached forgery chain.
func (e *Engine) mustChain(t *testing.T, host string) [][]byte {
	t.Helper()
	leaf := e.cache.Peek(host)
	if leaf == nil {
		t.Fatalf("no cached forgery for %q", host)
	}
	return leaf.ChainDER
}

func TestWhitelistPassthrough(t *testing.T) {
	_, fb := authSetup(t, "www.facebook.com")
	e := newEngine(t, Profile{IssuerOrg: "Kaspersky Lab ZAO", Whitelist: WhaleWhitelist})
	d, err := e.Decide("www.facebook.com", parsed(t, fb.ChainDER), fb.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionPassthrough {
		t.Fatalf("action = %v, want passthrough", d.Action)
	}
	_, other := authSetup(t, "pornclipstv.com")
	d, err = e.Decide("pornclipstv.com", parsed(t, other.ChainDER), other.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionIntercept {
		t.Fatalf("non-whale action = %v, want intercept", d.Action)
	}
}

func TestCopyUpstreamIssuer(t *testing.T) {
	// The "claims DigiCert" forgeries of §5.2.
	_, authLeaf := authSetup(t, "digi.example")
	e := newEngine(t, Profile{IssuerOrg: "Evil Corp", CopyUpstreamIssuer: true})
	d, err := e.Decide("digi.example", parsed(t, authLeaf.ChainDER), authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	forged := parsed(t, d.ChainDER)
	if got := x509util.IssuerOrganization(forged[0]); got != "GeoTrust Test" {
		t.Fatalf("forged issuer O = %q, want upstream's", got)
	}
	// And the claim is false: the signature is the proxy CA's.
	m, err := x509util.CompareChains("digi.example", parsed(t, authLeaf.ChainDER), forged, authLeaf.ChainDER, d.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IssuerCopied {
		t.Fatal("issuer copy not detected by mismatch anatomy")
	}
}

func TestSubjectModes(t *testing.T) {
	_, authLeaf := authSetup(t, "subject.example")
	up := parsed(t, authLeaf.ChainDER)

	wrong := newEngine(t, Profile{IssuerOrg: "X", SubjectMode: SubjectWrongDomain})
	d, err := wrong.Decide("subject.example", up, authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if cn := parsed(t, d.ChainDER)[0].Subject.CommonName; cn != "mail.google.com" {
		t.Fatalf("wrong-domain CN = %q", cn)
	}

	wild := newEngine(t, Profile{IssuerOrg: "X", SubjectMode: SubjectWildcardIP})
	d, err = wild.Decide("subject.example", up, authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if cn := parsed(t, d.ChainDER)[0].Subject.CommonName; cn != "*.64.112.0" {
		t.Fatalf("wildcard-IP CN = %q", cn)
	}
}

func TestBitdefenderRejectsForgedUpstream(t *testing.T) {
	// §5.2: "BitDefender not only blocked this forged certificate...".
	// The upstream presents a chain from a root the proxy does NOT trust.
	trustedCA, _ := authSetup(t, "unused.example")
	// onlinebank.example is not on the whale whitelist, so Bitdefender
	// attempts interception and validates upstream first.
	attackerCA, forgedUpstream := authSetup(t, "onlinebank.example") // distinct root

	profile := FromProduct(classify.ProductByName("Bitdefender"))
	profile.UpstreamRoots = trustedCA.CertPool()
	e := newEngine(t, profile)

	_, err := e.Decide("onlinebank.example", parsed(t, forgedUpstream.ChainDER), forgedUpstream.ChainDER)
	if err != ErrUpstreamInvalid {
		t.Fatalf("err = %v, want ErrUpstreamInvalid", err)
	}
	_ = attackerCA
}

func TestKurupiraMasksForgedUpstream(t *testing.T) {
	// §5.2: "Kurupira replaced our untrusted certificate with a signed
	// trusted one, thus allowing attackers to perform a transparent
	// man-in-the-middle attack".
	trustedCA, _ := authSetup(t, "unused.example")
	_, attackerLeaf := authSetup(t, "gmail.com") // untrusted root = attacker

	profile := FromProduct(classify.ProductByName("Kurupira.NET"))
	profile.UpstreamRoots = trustedCA.CertPool()
	e := newEngine(t, profile)

	d, err := e.Decide("gmail.com", parsed(t, attackerLeaf.ChainDER), attackerLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionIntercept {
		t.Fatalf("action = %v", d.Action)
	}
	if !d.Masked || d.UpstreamValid {
		t.Fatalf("masking not recorded: %+v", d)
	}
	// The forged chain validates against Kurupira's injected root — the
	// user sees a lock icon over an attacker-controlled connection.
	forged := parsed(t, d.ChainDER)
	opts := x509.VerifyOptions{Roots: e.CA.CertPool(), DNSName: "gmail.com"}
	if _, err := forged[0].Verify(opts); err != nil {
		t.Fatalf("masked forgery does not validate: %v", err)
	}
}

func TestValidUpstreamNotMasked(t *testing.T) {
	authCA, authLeaf := authSetup(t, "good.example")
	profile := FromProduct(classify.ProductByName("Kurupira.NET"))
	profile.UpstreamRoots = authCA.CertPool()
	e, err := New(profile, Options{Pool: pool, Now: func() time.Time {
		return certgen.DefaultNotBefore.AddDate(0, 1, 0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Decide("good.example", parsed(t, authLeaf.ChainDER), authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if d.Masked || !d.UpstreamValid {
		t.Fatalf("valid upstream misrecorded: %+v", d)
	}
}

func TestFromProductMappings(t *testing.T) {
	md5Product := classify.Product{Name: "MD5Corp", MD5: true}
	p := FromProduct(&md5Product)
	if p.SigAlg != certgen.MD5WithRSA {
		t.Error("MD5 fact not mapped")
	}
	upgrade := classify.Product{Name: "BigKeys", UpgradesKey: true}
	if FromProduct(&upgrade).KeyBits != 2432 {
		t.Error("key upgrade not mapped")
	}
	whale := classify.Product{Name: "AV", WhitelistsWhales: true}
	wp := FromProduct(&whale)
	if wp.Whitelist == nil || !wp.Whitelist("www.facebook.com") || wp.Whitelist("qq.com") {
		t.Error("whale whitelist not mapped")
	}
	if FromProduct(classify.ProductByName("DigiCert Inc")).CopyUpstreamIssuer != true {
		t.Error("issuer-copy fact not mapped")
	}
}

func TestActionString(t *testing.T) {
	if ActionIntercept.String() != "intercept" || ActionBlock.String() != "block" ||
		ActionPassthrough.String() != "passthrough" {
		t.Fatal("bad action names")
	}
}

func TestHostnameForSNI(t *testing.T) {
	if HostnameForSNI("WWW.Example.COM.") != "www.example.com" {
		t.Fatal("SNI normalization broken")
	}
}

// TestInterceptorWire runs the full Figure 3 topology over real TCP:
// client → interceptor → authoritative server, and checks that the client
// observes the forged chain while the interceptor observed the real one.
func TestInterceptorWire(t *testing.T) {
	_, authLeaf := authSetup(t, "victim.example")

	// Authoritative server.
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()
	go tlswire.Server(upstreamLn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(authLeaf.ChainDER)}, nil)

	// Interceptor in front of it.
	e := newEngine(t, Profile{ProductName: "TestProxy", IssuerOrg: "TestProxy Inc"})
	ic := NewInterceptor(e, func(host string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, func(err error) { t.Logf("interceptor: %v", err) })

	// Client probes "through" the proxy (transparent interception).
	res, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
		ServerName: "victim.example", Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if x509util.ChainsEqual(res.ChainDER, authLeaf.ChainDER) {
		t.Fatal("client saw the authoritative chain; interception failed")
	}
	leaf := parsed(t, res.ChainDER)[0]
	if got := x509util.IssuerOrganization(leaf); got != "TestProxy Inc" {
		t.Fatalf("client-observed issuer = %q", got)
	}
	// Probing again exercises both caches.
	res2, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
		ServerName: "victim.example", Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !x509util.ChainsEqual(res.ChainDER, res2.ChainDER) {
		t.Fatal("second probe saw a different forgery")
	}
}

// TestInterceptorPassthroughWire: whitelisted host flows through untouched,
// so the client sees the authoritative chain byte-identical.
func TestInterceptorPassthroughWire(t *testing.T) {
	_, fbLeaf := authSetup(t, "www.facebook.com")

	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()
	go tlswire.Server(upstreamLn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(fbLeaf.ChainDER)}, nil)

	e := newEngine(t, Profile{IssuerOrg: "PoliteAV", Whitelist: WhaleWhitelist})
	ic := NewInterceptor(e, func(host string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, nil)

	res, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
		ServerName: "www.facebook.com", Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !x509util.ChainsEqual(res.ChainDER, fbLeaf.ChainDER) {
		t.Fatal("whitelisted traffic was modified")
	}
}

// TestInterceptorBlockWire: a rejecting proxy with an untrusted upstream
// alerts the client instead of forging.
func TestInterceptorBlockWire(t *testing.T) {
	trustedCA, _ := authSetup(t, "unused.example")
	_, attackerLeaf := authSetup(t, "bank.example")

	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()
	go tlswire.Server(upstreamLn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(attackerLeaf.ChainDER)}, nil)

	profile := FromProduct(classify.ProductByName("Bitdefender"))
	profile.UpstreamRoots = trustedCA.CertPool()
	e := newEngine(t, profile)
	ic := NewInterceptor(e, func(host string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, nil)

	_, err = tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
		ServerName: "bank.example", Timeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("probe through a blocking proxy succeeded")
	}
}

func BenchmarkDecideCached(b *testing.B) {
	_, authLeaf := authSetup(b, "bench.example")
	e, err := New(Profile{IssuerOrg: "BenchCo"}, Options{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	up := parsed(b, authLeaf.ChainDER)
	if _, err := e.Decide("bench.example", up, authLeaf.ChainDER); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Decide("bench.example", up, authLeaf.ChainDER); err != nil {
			b.Fatal(err)
		}
	}
}
