// Package study orchestrates full reproduction runs of the paper's two
// measurement studies: the AdWords campaigns serve simulated impressions,
// each impression becomes a client that probes the study's hosts, proxied
// clients' certificate chains are forged by real proxy engines, and every
// completed test lands in the measurement store the analysis tables read.
//
// Two execution modes share all decision logic (see DESIGN.md §5): wire
// mode drives real sockets end to end and is exercised by tests and
// examples; fast mode reuses one real forgery per behavior archetype and
// host so that the 12.3M-test second study runs in seconds.
package study

import (
	"crypto/x509/pkix"
	"fmt"
	"sync"

	"tlsfof/internal/certgen"
	"tlsfof/internal/hostdb"
)

// Authoritative holds the true server-side fixtures for every probe host.
type Authoritative struct {
	// Chains maps host name to its leaf-first DER chain.
	Chains map[string][][]byte
	// Leaves retains the issued leaves (with keys) for wire-mode servers.
	Leaves map[string]*certgen.Leaf
	// Roots are the authority CAs, keyed by CA common name.
	Roots map[string]*certgen.CA
}

// BuildAuthoritative mints the authoritative PKI for a host list: a small
// set of commercial-CA analogues and one 2048-bit leaf per host (the
// paper's own certificate was a 2048-bit DigiCert issuance, §5.2).
func BuildAuthoritative(hosts []hostdb.Host, pool *certgen.KeyPool) (*Authoritative, error) {
	a := &Authoritative{
		Chains: make(map[string][][]byte, len(hosts)),
		Leaves: make(map[string]*certgen.Leaf, len(hosts)),
		Roots:  make(map[string]*certgen.CA),
	}
	caSpecs := []struct{ cn, org string }{
		{"DigiCert High Assurance CA-3", "DigiCert Inc"},
		{"GeoTrust Global CA", "GeoTrust Inc."},
		{"Cybertrust Public SureServer CA", "Cybertrust Inc"},
	}
	// The three CA keys are independent, so they mint at once.
	cas := make([]*certgen.CA, len(caSpecs))
	errs := make([]error, len(caSpecs))
	var wg sync.WaitGroup
	for i, spec := range caSpecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// KeyName isolates authoritative CA keys from every proxy CA
			// key: trust separation would silently vanish if the shared
			// pool handed both sides the same RSA key.
			cas[i], errs[i] = certgen.NewRootCA(certgen.CAConfig{
				Subject: pkix.Name{CommonName: spec.cn, Organization: []string{spec.org}},
				KeyBits: 2048,
				Pool:    pool,
				KeyName: "authoritative-ca:" + spec.cn,
			})
		}()
	}
	wg.Wait()
	for i, spec := range caSpecs {
		if errs[i] != nil {
			return nil, fmt.Errorf("study: mint CA %q: %w", spec.cn, errs[i])
		}
		a.Roots[spec.cn] = cas[i]
	}
	for i, h := range hosts {
		// The authors' site is a DigiCert issuance; others rotate.
		ca := cas[i%len(cas)]
		if h.Category == hostdb.Authors {
			ca = cas[0]
		}
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{
			CommonName: h.Name,
			KeyBits:    2048,
			Pool:       pool,
		})
		if err != nil {
			return nil, fmt.Errorf("study: issue leaf for %q: %w", h.Name, err)
		}
		a.Chains[h.Name] = leaf.ChainDER
		a.Leaves[h.Name] = leaf
	}
	return a, nil
}
