package proxyengine_test

// FuzzUpstreamChainVerdict holds ClassifyUpstreamChain to its contract:
// pure and total over arbitrary origin chains. The seed corpus is the
// audit battery's own minted chains (one per defect column), so the
// fuzzer starts from every verdict class the grid distinguishes and
// mutates outward from real DER.

import (
	"crypto/x509"
	"testing"
	"time"

	"tlsfof/internal/audit"
	"tlsfof/internal/proxyengine"
)

func FuzzUpstreamChainVerdict(f *testing.F) {
	origins, err := audit.MintOrigins(nil)
	if err != nil {
		f.Fatal(err)
	}
	for defect, chain := range origins.Chains {
		var second []byte
		if len(chain) > 1 {
			second = chain[1]
		}
		f.Add(chain[0], second, audit.HostFor(defect), int64(0), false)
	}
	roots := origins.Root.CertPool()
	revoked := origins.RevokedHook()

	f.Fuzz(func(t *testing.T, leafDER, secondDER []byte, host string, nowOffset int64, withoutRoots bool) {
		var chain []*x509.Certificate
		if c, err := x509.ParseCertificate(leafDER); err == nil {
			chain = append(chain, c)
			if c2, err := x509.ParseCertificate(secondDER); err == nil {
				chain = append(chain, c2)
			}
		}
		// Keep the clock within a decade of the battery's so offsets stay
		// meaningful rather than wrapping the x509 time range.
		const decade = 10 * 365 * 24 * int64(time.Hour)
		now := audit.Clock().Add(time.Duration(nowOffset % decade))
		pool := roots
		if withoutRoots {
			pool = nil
		}

		set := proxyengine.ClassifyUpstreamChain(host, chain, pool, now, revoked)

		// Determinism: the verdict is a pure function of its inputs.
		if again := proxyengine.ClassifyUpstreamChain(host, chain, pool, now, revoked); again != set {
			t.Fatalf("verdict not deterministic: %v then %v", set, again)
		}
		// The two trust-failure axes are exclusive by design: a lone
		// self-signed leaf is graded on its own axis, never doubly.
		if set.Has(proxyengine.DefectSelfSigned) && set.Has(proxyengine.DefectUntrustedRoot) {
			t.Fatalf("self-signed and untrusted-root are mutually exclusive, got %v", set)
		}
		// An empty chain is always exactly untrusted-root.
		if len(chain) == 0 && set.String() != "untrusted-root" {
			t.Fatalf("empty chain classified %v, want untrusted-root", set)
		}
		// Without a trust anchor the untrusted axis is unassessed (except
		// for the no-leaf case above).
		if pool == nil && len(chain) > 0 &&
			!(len(chain) == 1 && set.Has(proxyengine.DefectSelfSigned)) &&
			set.Has(proxyengine.DefectUntrustedRoot) {
			t.Fatalf("untrusted-root flagged with no roots installed: %v", set)
		}
		// The rendered name is never empty.
		if set.String() == "" {
			t.Fatal("DefectSet.String returned empty")
		}
	})
}
