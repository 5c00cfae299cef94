package classify

import (
	"testing"
	"testing/quick"
)

func TestCategoryStrings(t *testing.T) {
	if BusinessPersonalFirewall.String() != "Business/Personal Firewall" {
		t.Error("BPF label wrong")
	}
	if CertificateAuthority.String() != "Certificate Authority" {
		t.Error("CA label wrong")
	}
	if len(AllCategories) != numCategories {
		t.Fatalf("AllCategories has %d entries, want %d", len(AllCategories), numCategories)
	}
	seen := make(map[string]bool)
	for _, c := range AllCategories {
		s := c.String()
		if seen[s] {
			t.Errorf("duplicate label %q", s)
		}
		seen[s] = true
	}
}

func TestEveryPaperProductClassifies(t *testing.T) {
	c := NewClassifier()
	// Name → expected category for each product the paper names.
	cases := map[string]Category{
		"Bitdefender":               BusinessPersonalFirewall,
		"PSafe Tecnologia S.A.":     BusinessPersonalFirewall,
		"Sendori Inc":               Malware,
		"ESET spol. s r. o.":        BusinessPersonalFirewall,
		"Kaspersky Lab ZAO":         BusinessPersonalFirewall,
		"Fortinet":                  BusinessPersonalFirewall,
		"Kurupira.NET":              ParentalControl,
		"POSCO":                     Organization,
		"Qustodio":                  ParentalControl,
		"WebMakerPlus Ltd":          Malware,
		"Southern Company Services": Organization,
		"NordNet":                   BusinessPersonalFirewall,
		"Target Corporation":        Organization,
		"DigiCert Inc":              CertificateAuthority,
		"ContentWatch, Inc.":        ParentalControl,
		"NetSpark, Inc.":            ParentalControl,
		"Sweesh LTD":                Malware,
		"IBRD":                      Organization,
		"AtomPark Software Inc":     Malware,
		"Objectify Media Inc":       Malware,
		"Superfish, Inc.":           Malware,
		"WiredTools LTD":            Malware,
		"Internet Widgits Pty Ltd":  Malware,
		"ImpressX OU":               Malware,
		"kowsar":                    Unknown,
		"LG UPLUS":                  Telecom,
		"DSP":                       Organization,
	}
	for name, want := range cases {
		got := c.Classify(name, "", "")
		if got.Category != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got.Category, want)
		}
		if got.Product == nil {
			t.Errorf("Classify(%q) did not match the product database", name)
		}
	}
}

func TestIopFailZeroAccessCreateViaCN(t *testing.T) {
	// This malware identifies only in the Issuer Common Name (§5.1).
	c := NewClassifier()
	got := c.Classify("", "IopFailZeroAccessCreate", "")
	if got.Category != Malware {
		t.Fatalf("category = %v", got.Category)
	}
	if got.Product == nil || !got.Product.SharedKey512 {
		t.Fatal("shared-key fact lost")
	}
}

func TestAliasesResolve(t *testing.T) {
	c := NewClassifier()
	for _, alias := range []string{"Sendori, Inc", "Kurupira", "Superfish Inc", "Kaspersky Lab"} {
		got := c.Classify(alias, "", "")
		if got.Product == nil {
			t.Errorf("alias %q did not resolve", alias)
		}
	}
}

func TestCaseAndSpaceInsensitive(t *testing.T) {
	c := NewClassifier()
	got := c.Classify("  bitdefender ", "", "")
	if got.Product == nil || got.Product.Name != "Bitdefender" {
		t.Fatalf("normalized match failed: %+v", got)
	}
}

func TestNullIssuer(t *testing.T) {
	c := NewClassifier()
	got := c.Classify("", "", "")
	if got.Category != Unknown || !got.NullIssuer {
		t.Fatalf("null issuer = %+v", got)
	}
	got = c.Classify("  ", "", " ")
	if !got.NullIssuer {
		t.Fatal("whitespace issuer not treated as null")
	}
}

func TestHeuristics(t *testing.T) {
	c := NewClassifier()
	cases := map[string]Category{
		"Brigham Young University":               School,
		"Provo School District":                  School,
		"Acme Telecom":                           Telecom,
		"Maple Valley Cable":                     Telecom,
		"SuperShield Firewall":                   BusinessPersonalFirewall,
		"SafeKids Parental Filter":               ParentalControl,
		"Global Certification Authority":         CertificateAuthority,
		"Best Deals Offers":                      Malware,
		"Consolidated Widgets Inc":               Organization,
		"Landesbank GmbH":                        Organization,
		"zxqw":                                   Unknown,
		"Lawrence Livermore National Laboratory": Organization,
	}
	for name, want := range cases {
		got := c.Classify(name, "", "")
		if got.Category != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got.Category, want)
		}
	}
}

func TestFieldPriority(t *testing.T) {
	// Organization should be tried before CN: a product name in O wins
	// even when CN holds something generic.
	c := NewClassifier()
	got := c.Classify("Fortinet", "generic-gateway.local", "")
	if got.Product == nil || got.Product.Name != "Fortinet" {
		t.Fatalf("O-field priority broken: %+v", got)
	}
	// With O empty, CN should drive the decision.
	got = c.Classify("", "Riverdale University", "")
	if got.Category != School {
		t.Fatalf("CN fallback = %v", got.Category)
	}
	// With O and CN empty, OU is consulted.
	got = c.Classify("", "", "Kurupira.NET")
	if got.Category != ParentalControl {
		t.Fatalf("OU fallback = %v", got.Category)
	}
}

func TestProductByName(t *testing.T) {
	if p := ProductByName("Superfish, Inc."); p == nil || !p.InsertsAds {
		t.Error("Superfish lookup failed")
	}
	if p := ProductByName("IopFailZeroAccessCreate"); p == nil || !p.SharedKey512 {
		t.Error("CN-only lookup failed")
	}
	if ProductByName("No Such Vendor") != nil {
		t.Error("phantom product")
	}
	if ProductByName("") != nil {
		t.Error("empty name must not match the null-issuer product record")
	}
}

func TestPaperBehavioralFacts(t *testing.T) {
	// The facts §5.2/§6.4 establish must be encoded in the database.
	kurupira := ProductByName("Kurupira.NET")
	if kurupira == nil || !kurupira.MasksInvalidUpstream {
		t.Error("Kurupira masking flaw not recorded")
	}
	bitdefender := ProductByName("Bitdefender")
	if bitdefender == nil || !bitdefender.RejectsInvalidUpstream {
		t.Error("Bitdefender rejection behavior not recorded")
	}
	digicert := ProductByName("DigiCert Inc")
	if digicert == nil || !digicert.CopiesIssuer {
		t.Error("DigiCert issuer-copy behavior not recorded")
	}
	sweesh := ProductByName("Sweesh LTD")
	if sweesh == nil || !sweesh.SpamAssociated {
		t.Error("Sweesh spam association not recorded")
	}
	widgits := ProductByName("Internet Widgits Pty Ltd")
	if widgits == nil || !widgits.BotnetTies {
		t.Error("Internet Widgits botnet ties not recorded")
	}
}

func TestMalwareProductCount(t *testing.T) {
	// The paper: "we have found eight distinct, self-identifying malware"
	// (Sendori, WebMakerPlus, IopFailZeroAccessCreate, Objectify Media,
	// Superfish, WiredTools, Internet Widgits, ImpressX). Spam-tool
	// vendors (Sweesh, AtomPark) are additional.
	core := 0
	for _, p := range KnownProducts {
		if p.Category == Malware && !p.SpamAssociated {
			core++
		}
	}
	if core != 8 {
		t.Fatalf("core malware products = %d, want 8", core)
	}
}

// Property: Classify is total and never panics for arbitrary field values,
// and the result category is always a member of the taxonomy.
func TestQuickClassifyTotal(t *testing.T) {
	c := NewClassifier()
	f := func(org, cn, ou string) bool {
		got := c.Classify(org, cn, ou)
		return int(got.Category) >= 0 && int(got.Category) < numCategories
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a product match is stable — classifying the canonical name of
// every database product returns that product.
func TestQuickProductFixedPoint(t *testing.T) {
	c := NewClassifier()
	for _, p := range KnownProducts {
		if p.Name == "" {
			continue
		}
		got := c.Classify(p.Name, "", "")
		if got.Product == nil {
			t.Fatalf("product %q does not classify to itself", p.Name)
		}
		if got.Category != p.Category {
			t.Fatalf("product %q category drifted: %v != %v", p.Name, got.Category, p.Category)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	c := NewClassifier()
	inputs := []string{"Bitdefender", "", "Riverdale University", "zxqw", "LG UPLUS"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(inputs[i%len(inputs)], "", "")
	}
}
