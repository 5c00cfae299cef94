package classify

import (
	"strings"
	"testing"
)

// TestIssuerEdgeCases pins the classifier's behavior on the paper's
// "unidentifiable long tail" (§5.1): issuers that are null, blank,
// whitespace, malformed, or plain garbage. The invariant is that every
// input classifies to *some* category without panicking, that only
// genuinely empty issuers count as NullIssuer, and that junk never
// accidentally matches a product.
func TestIssuerEdgeCases(t *testing.T) {
	c := NewClassifier()
	cases := []struct {
		name         string
		org, cn, ou  string
		wantCategory Category
		wantNull     bool
		wantProduct  bool
	}{
		{name: "all empty", wantCategory: Unknown, wantNull: true},
		{name: "whitespace org only", org: "   ", wantCategory: Unknown, wantNull: true},
		{name: "whitespace all fields", org: " \t ", cn: "  ", ou: "\t\t", wantCategory: Unknown, wantNull: true},
		{name: "newline-only field", cn: "\n", wantCategory: Unknown, wantNull: true},
		// Non-UTF8 issuer bytes: real substitute certificates carried
		// PrintableString fields with high bytes; classification must
		// treat them as opaque, not crash or match.
		{name: "non-utf8 org", org: "\xff\xfe\xfd", wantCategory: Unknown},
		{name: "non-utf8 with product substring", org: "Bitdefender\xff", wantCategory: Unknown},
		{name: "nul bytes", org: "\x00\x00", wantCategory: Unknown},
		// Whitespace around a real product name still matches (the
		// normalize path), but whitespace *inside* does not.
		{name: "padded product", org: "  Bitdefender  ", wantCategory: BusinessPersonalFirewall, wantProduct: true},
		{name: "interior-split product", org: "Bit defender", wantCategory: Unknown},
		// A product name in one field wins even when other fields hold
		// junk bytes.
		{name: "product beats junk", org: "\xff\xfe", cn: "Kurupira.NET", wantCategory: ParentalControl, wantProduct: true},
		// Long-tail heuristics keep working on otherwise odd inputs.
		{name: "school with trailing junk", org: "Some University \t", wantCategory: School},
		{name: "unprintable telecom", org: "ACME Telecom", wantCategory: Telecom},
		// Very long garbage neither panics nor matches.
		{name: "16KB of garbage", org: strings.Repeat("\xfeZ", 8192), wantCategory: Unknown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := c.Classify(tc.org, tc.cn, tc.ou)
			if res.Category != tc.wantCategory {
				t.Fatalf("Classify(%q,%q,%q).Category = %v, want %v", tc.org, tc.cn, tc.ou, res.Category, tc.wantCategory)
			}
			if res.NullIssuer != tc.wantNull {
				t.Fatalf("NullIssuer = %v, want %v", res.NullIssuer, tc.wantNull)
			}
			if (res.Product != nil) != tc.wantProduct {
				t.Fatalf("Product = %v, wantProduct = %v", res.Product, tc.wantProduct)
			}
		})
	}
}

// TestWhitespaceOnlyProductNameNeverMatches guards the normalize path:
// if a product record ever carried a whitespace-only name, a blank
// issuer must still not match it. (The database has no such record
// today; this pins the lookup-side defense.)
func TestWhitespaceOnlyProductNameNeverMatches(t *testing.T) {
	c := NewClassifier()
	for _, blank := range []string{"", " ", "\t", "  \t "} {
		res := c.Classify(blank, "", "")
		if res.Product != nil {
			t.Fatalf("blank issuer %q matched product %q", blank, res.Product.Name)
		}
	}
	// And the builder never indexes an empty key.
	if _, ok := c.exact[""]; ok {
		t.Fatalf("classifier indexed an empty normalized name")
	}
}
