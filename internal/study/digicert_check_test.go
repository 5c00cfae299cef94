package study

import (
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/hostdb"
)

// TestIssuerCopyPathDirect drives the fast-mode factory for the DigiCert
// deployment and confirms the §5.2 "claims DigiCert" anatomy survives the
// caching layers.
func TestIssuerCopyPathDirect(t *testing.T) {
	pool := certgen.NewKeyPool(2, nil)
	deps := clientpop.Study1Deployments()
	idx := -1
	for i, d := range deps {
		if d.Product.Name == "DigiCert Inc" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("DigiCert deployment missing")
	}
	hosts := hostdb.FirstStudyHosts()
	auth, err := BuildAuthoritative(hosts, pool)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newObsFactory(classify.NewClassifier(), pool, hosts, auth, deps)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := f.observation(idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Proxied {
		t.Fatal("not proxied")
	}
	if !obs.IssuerCopied {
		t.Fatalf("IssuerCopied not set: %+v", obs)
	}
	if obs.IssuerOrg != "DigiCert Inc" {
		t.Fatalf("issuer org = %q", obs.IssuerOrg)
	}
	if obs.Category != classify.CertificateAuthority {
		t.Fatalf("category = %v", obs.Category)
	}
}
