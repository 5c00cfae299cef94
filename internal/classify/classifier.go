package classify

import "strings"

// Result is the classification of one substitute certificate's claimed
// issuer.
type Result struct {
	Category Category
	// Product is the matched database record, nil when classification
	// fell through to heuristics.
	Product *Product
	// Matched is the issuer string the decision keyed on.
	Matched string
	// NullIssuer is true when every issuer field was blank — the cohort
	// §6.4 calls out ("1,518 where the issuer field is null or blank").
	NullIssuer bool
}

// Classifier maps claimed issuers to taxonomy categories. It is stateless
// and safe for concurrent use; construct once with NewClassifier.
type Classifier struct {
	exact map[string]*Product
}

// NewClassifier builds the lookup structures over KnownProducts.
func NewClassifier() *Classifier {
	c := &Classifier{exact: make(map[string]*Product)}
	for i := range KnownProducts {
		p := &KnownProducts[i]
		if p.Name != "" {
			c.exact[normalize(p.Name)] = p
		}
		if p.CommonName != "" {
			c.exact[normalize(p.CommonName)] = p
		}
		for _, a := range p.Aliases {
			c.exact[normalize(a)] = p
		}
	}
	return c
}

func normalize(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// Classify decides the category for a claimed issuer, given the three
// fields the paper inspected: Issuer Organization, Issuer Common Name, and
// Issuer Organizational Unit (§5.2: "names ... provided in the Issuer
// Organization, Issuer Organizational Unit, and Issuer Common Name
// fields").
func (c *Classifier) Classify(org, cn, ou string) Result {
	// 1. Exact product match on any field, most specific first.
	for _, field := range []string{org, cn, ou} {
		if field == "" {
			continue
		}
		if p, ok := c.exact[normalize(field)]; ok {
			return Result{Category: p.Category, Product: p, Matched: field}
		}
	}

	// 2. Null/blank issuer: the paper tallies these under Unknown.
	if strings.TrimSpace(org) == "" && strings.TrimSpace(cn) == "" && strings.TrimSpace(ou) == "" {
		return Result{Category: Unknown, NullIssuer: true}
	}

	// 3. Heuristics over whichever field is populated.
	display := org
	if display == "" {
		display = cn
	}
	if display == "" {
		display = ou
	}
	return Result{Category: heuristicCategory(display), Matched: display}
}

// heuristicCategory applies the manual-inspection rules the authors
// describe ("manually inspect the contents of the relevant fields to
// identify the issuing organization", §5.1), encoded as keyword tests.
func heuristicCategory(s string) Category {
	l := normalize(s)
	switch {
	case containsAny(l, "university", "school", "college", "academy",
		"district", "institut", "campus"):
		return School
	case containsAny(l, "telecom", "telekom", "communications", "uplus",
		"broadband", "cable", "mobile", "cellular", "gsm", "wireless"):
		return Telecom
	case containsAny(l, "personal firewall", "home firewall"):
		return PersonalFirewall
	case containsAny(l, "appliance", "perimeter", "utm", "enterprise gateway"):
		return BusinessFirewall
	case containsAny(l, "firewall", "antivirus", "anti-virus", "internet security",
		"web filter", "secure web", "gateway"):
		return BusinessPersonalFirewall
	case containsAny(l, "parental", "family", "child", "kids"):
		return ParentalControl
	case containsAny(l, "certificate authority", "certification authority",
		"trust services", "ssl ca"):
		return CertificateAuthority
	case containsAny(l, "adware", "ads by", "offers", "deals", "coupon",
		"savings"):
		// Ad-injection branding is how §6.4's malware cohort advertised
		// itself.
		return Malware
	case containsAny(l, " inc", " llc", " ltd", " gmbh", " s.a", " corp",
		" co.", " company", " group", " plc", " laboratory", " agency",
		" department", " ministry", " bank", " insurance", " financial",
		" services", " hospital", " clinic"):
		return Organization
	default:
		return Unknown
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
