// Package classify implements the paper's Issuer Organization analysis
// (§5.1, §6.1): given the issuer fields of a substitute certificate, decide
// what kind of entity ran the TLS proxy.
//
// The taxonomy is exactly the one in Tables 5 and 6. The product database
// records every organization the paper names, with the behavioral facts the
// study established about each (spam association, botnet ties, shared keys,
// issuer forgery, certificate masking). The paper stresses that these
// classifications rest on proxies self-identifying — a malicious proxy can
// claim to be anyone — and the engine preserves that caveat by reporting
// what was *claimed*, never what was verified.
package classify

import "fmt"

// Category is one row of Tables 5/6.
type Category int

// The claimed-issuer classification taxonomy.
const (
	// BusinessPersonalFirewall covers products sold in both enterprise
	// and consumer editions (Bitdefender, ESET, Kaspersky…): the
	// dominant class in both studies (~69–71%).
	BusinessPersonalFirewall Category = iota
	// BusinessFirewall covers enterprise-only middleboxes (Fortinet).
	BusinessFirewall
	// PersonalFirewall covers consumer-only products.
	PersonalFirewall
	// ParentalControl covers content filters aimed at families
	// (Kurupira, Qustodio, Net Nanny).
	ParentalControl
	// Organization covers corporate/agency names used by in-house
	// interception (Lawrence Livermore, POSCO, Target…).
	Organization
	// School covers educational institutions.
	School
	// Malware covers products established to be malicious (Sendori,
	// Superfish, IopFailZeroAccessCreate…).
	Malware
	// Unknown covers null, blank, or uncategorizable issuers — the class
	// that grew from 7.14% to 10.75% between studies (§6.1).
	Unknown
	// Telecom covers network operators intercepting their own users
	// (LG UPLUS), absent in study 1 and 0.88% in study 2.
	Telecom
	// CertificateAuthority covers claimed real CAs (the falsified
	// "DigiCert Inc" issuers of §5.2).
	CertificateAuthority

	numCategories = int(CertificateAuthority) + 1
)

// String returns the row label used in Tables 5/6.
func (c Category) String() string {
	switch c {
	case BusinessPersonalFirewall:
		return "Business/Personal Firewall"
	case BusinessFirewall:
		return "Business Firewall"
	case PersonalFirewall:
		return "Personal Firewall"
	case ParentalControl:
		return "Parental Control"
	case Organization:
		return "Organization"
	case School:
		return "School"
	case Malware:
		return "Malware"
	case Unknown:
		return "Unknown"
	case Telecom:
		return "Telecom"
	case CertificateAuthority:
		return "Certificate Authority"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// AllCategories lists the taxonomy in the paper's table order.
var AllCategories = []Category{
	BusinessPersonalFirewall,
	BusinessFirewall,
	PersonalFirewall,
	ParentalControl,
	Organization,
	School,
	Malware,
	Unknown,
	Telecom,
	CertificateAuthority,
}
