package mitigate

import (
	"crypto/x509/pkix"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"tlsfof/internal/certgen"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/x509util"
)

func chainFor(t testing.TB, caName, host string) [][]byte {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: caName, Organization: []string{caName}},
		KeyBits: 1024, KeyName: "mitigate-" + caName,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return leaf.ChainDER
}

func TestPinTOFUThenMatch(t *testing.T) {
	s := NewPinStore()
	chain := chainFor(t, "Pin Root", "pin.example")
	if v := s.Check("pin.example", chain); v != PinTOFU {
		t.Fatalf("first check = %v", v)
	}
	if v := s.Check("pin.example", chain); v != PinMatch {
		t.Fatalf("second check = %v", v)
	}
	if s.Len() != 1 {
		t.Fatalf("pins = %d", s.Len())
	}
}

func TestPinDetectsSubstituteChain(t *testing.T) {
	s := NewPinStore()
	auth := chainFor(t, "Auth Root", "victim.example")
	s.Preload("victim.example", auth)

	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "PinTest Proxy", IssuerOrg: "PinTest Proxy",
	}, proxyengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := x509util.ParseChain(auth)
	if err != nil {
		t.Fatal(err)
	}
	d, err := engine.Decide("victim.example", up, auth)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Check("victim.example", d.ChainDER); v != PinMismatch {
		t.Fatalf("forged chain verdict = %v, want mismatch", v)
	}
	// The authoritative chain still matches.
	if v := s.Check("victim.example", auth); v != PinMatch {
		t.Fatalf("authoritative chain verdict = %v", v)
	}
}

func TestPinTOFUBlindSpot(t *testing.T) {
	// §7: pinning is trust-on-first-use — a proxy present from the very
	// first connection pins its own forgery and is never detected.
	s := NewPinStore()
	forged := chainFor(t, "Evil Root", "victim.example")
	if v := s.Check("victim.example", forged); v != PinTOFU {
		t.Fatalf("first = %v", v)
	}
	if v := s.Check("victim.example", forged); v != PinMatch {
		t.Fatalf("proxy forgery accepted as pinned: %v (this is the documented blind spot)", v)
	}
}

func TestNotaryConfirmsCleanPath(t *testing.T) {
	auth := chainFor(t, "Notary Auth", "site.example")
	vantage := func(string) ([][]byte, error) { return auth, nil }
	n := &Notary{Vantages: []Vantage{vantage, vantage, vantage}}
	v := n.Check("site.example", auth)
	if !v.Quorum || v.Agree != 3 || v.Disagree != 0 {
		t.Fatalf("verdict = %+v", v)
	}
	if !strings.Contains(v.Describe(), "CONFIRMED") {
		t.Fatalf("describe = %q", v.Describe())
	}
}

func TestNotaryDetectsClientSideProxy(t *testing.T) {
	// The client sits behind a proxy; the notaries do not.
	auth := chainFor(t, "Notary Auth2", "bank.example")
	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "Client Proxy", IssuerOrg: "Client Proxy",
	}, proxyengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := x509util.ParseChain(auth)
	if err != nil {
		t.Fatal(err)
	}
	d, err := engine.Decide("bank.example", up, auth)
	if err != nil {
		t.Fatal(err)
	}
	vantage := func(string) ([][]byte, error) { return auth, nil }
	n := &Notary{Vantages: []Vantage{vantage, vantage, vantage}}
	v := n.Check("bank.example", d.ChainDER)
	if v.Quorum || v.Disagree != 3 {
		t.Fatalf("client-side proxy not detected: %+v", v)
	}
	if !strings.Contains(v.Describe(), "REJECTED") {
		t.Fatalf("describe = %q", v.Describe())
	}
}

func TestNotaryServerSideBlindSpot(t *testing.T) {
	// A proxy in front of the *server* fools every path equally — the
	// known limitation of multi-path probing.
	forged := chainFor(t, "Server Side Evil", "site.example")
	vantage := func(string) ([][]byte, error) { return forged, nil }
	n := &Notary{Vantages: []Vantage{vantage, vantage}}
	v := n.Check("site.example", forged)
	if !v.Quorum {
		t.Fatalf("server-side interception should pass quorum (blind spot): %+v", v)
	}
}

func TestNotaryToleratesFailedVantages(t *testing.T) {
	auth := chainFor(t, "Notary Auth3", "flaky.example")
	good := func(string) ([][]byte, error) { return auth, nil }
	bad := func(string) ([][]byte, error) { return nil, errors.New("unreachable") }
	n := &Notary{Vantages: []Vantage{good, bad, bad, good, good}}
	v := n.Check("flaky.example", auth)
	if !v.Quorum || v.Failed != 2 || v.Agree != 3 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestVerdictStrings(t *testing.T) {
	if PinTOFU.String() != "tofu" || PinMismatch.String() != "MISMATCH" {
		t.Fatal("verdict labels wrong")
	}
}

// Property: for any pair of chains, Check(host, a) then Check(host, b)
// yields mismatch iff the fingerprints differ.
func TestQuickPinConsistency(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		s := NewPinStore()
		ca, cb := [][]byte{a}, [][]byte{b}
		if s.Check("h", ca) != PinTOFU {
			return false
		}
		v := s.Check("h", cb)
		same := x509util.ChainFingerprint(ca) == x509util.ChainFingerprint(cb)
		return (v == PinMatch) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
