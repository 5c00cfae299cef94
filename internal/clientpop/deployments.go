package clientpop

import (
	"fmt"

	"tlsfof/internal/classify"
	"tlsfof/internal/stats"
)

// Deployment is one interception product with its market weight among
// proxied connections — one slot in the Table 4 histogram.
type Deployment struct {
	Product *classify.Product
	Weight  float64
}

// named returns a deployment for a product in the classify database,
// panicking on unknown names (these are compile-time-constant tables).
func named(name string, weight float64) Deployment {
	p := classify.ProductByName(name)
	if p == nil {
		panic(fmt.Sprintf("clientpop: product %q not in classify database", name))
	}
	return Deployment{Product: p, Weight: weight}
}

// synth creates a synthetic product for the long-tail pools behind
// Table 4's "Other (332)" row and Table 6's category residuals. Synthetic
// names are chosen so the classifier's heuristics bucket them into the
// intended category, keeping the pipeline mechanistic end to end.
func synth(name, cn string, cat classify.Category, weight float64, mutate func(*classify.Product)) Deployment {
	p := &classify.Product{Name: name, CommonName: cn, Category: cat}
	if mutate != nil {
		mutate(p)
	}
	return Deployment{Product: p, Weight: weight}
}

// nullIssuer is the deployment writing entirely blank issuers (Table 4's
// "Null" row: 829 connections in study 1; §6.4's 1,518 in study 2).
func nullIssuer(weight float64) Deployment {
	return Deployment{
		Product: &classify.Product{Name: "", CommonName: "", Category: classify.Unknown},
		Weight:  weight,
	}
}

// pool emits n synthetic deployments of a category splitting total weight,
// with distinct names built from pattern (must contain %d).
func pool(pattern string, cat classify.Category, n int, total float64, mutate func(*classify.Product)) []Deployment {
	out := make([]Deployment, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, synth(fmt.Sprintf(pattern, i+1), "", cat, total/float64(n), mutate))
	}
	return out
}

// Study1Deployments is the first study's product mix. Named weights are
// Table 4 counts verbatim; pools fill the "Other (332)" residual shaped to
// approach Table 5's category rows (see EXPERIMENTS.md for the reconciled
// deltas — the paper's own Tables 4 and 5 are not mutually consistent for
// Parental Control).
func Study1Deployments() []Deployment {
	ds := []Deployment{
		named("Bitdefender", 4788),
		named("PSafe Tecnologia S.A.", 1200),
		named("Sendori Inc", 966),
		named("ESET spol. s r. o.", 927),
		nullIssuer(829),
		named("Kaspersky Lab ZAO", 589),
		named("Fortinet", 310),
		named("Kurupira.NET", 267),
		named("POSCO", 167),
		named("Qustodio", 109),
		named("WebMakerPlus Ltd", 95),
		named("Southern Company Services", 62),
		named("NordNet", 61),
		named("Target Corporation", 52),
		named("DigiCert Inc", 49), // the CopiesIssuer cohort (§5.2)
		named("ContentWatch, Inc.", 42),
		named("NetSpark, Inc.", 42),
		named("Sweesh LTD", 39),
		named("IBRD", 26),
		named("Cloud Services", 23),
		named("Lawrence Livermore National Laboratory", 30),
		named("Lincoln Financial Group", 28),
		named("AtomPark Software Inc", 20),
		named("IopFailZeroAccessCreate", 21), // MD5 + shared 512-bit key
	}
	// §5.2 micro-cohorts, as dedicated pseudo-products.
	ds = append(ds,
		synth("QuickScan Web Gateway", "", classify.BusinessPersonalFirewall, 7,
			func(p *classify.Product) { p.UpgradesKey = true }), // the 2432-bit cohort
		synth("Veritas Secure Web", "", classify.BusinessPersonalFirewall, 5,
			func(p *classify.Product) { p.KeyBits = 2048 }), // the SHA-256/full-strength minority
		synth("Legacy Internet Security", "", classify.BusinessPersonalFirewall, 2,
			func(p *classify.Product) { p.MD5 = true; p.KeyBits = 1024 }), // MD5 beyond IopFail
	)
	// Long-tail pools sized to approach Table 5 rows.
	ds = append(ds, pool("SecureNet Firewall %03d", classify.BusinessPersonalFirewall, 30, 150, nil)...)
	ds = append(ds, pool("Perimeter Security Appliance %03d", classify.BusinessFirewall, 18, 69, nil)...)
	ds = append(ds, pool("HomeGuard Personal Firewall %d", classify.PersonalFirewall, 4, 11, nil)...)
	ds = append(ds, pool("Consolidated Holdings %03d Inc", classify.Organization, 160, 950, func(p *classify.Product) {
		if stats.FNV1a(p.Name)%2 == 0 {
			p.KeyBits = 2048
		}
	})...)
	ds = append(ds, pool("Ridgeview University %02d", classify.School, 10, 32, nil)...)
	ds = append(ds, pool("xq%02dzr", classify.Unknown, 5, 11, nil)...)
	// Subject-field modification cohorts (§5.2: 110 modified subjects, 51
	// not matching the probed domain, 2 naming a foreign domain).
	ds = append(ds,
		synth("Meridian Networks Inc", "", classify.Organization, 49, func(p *classify.Product) {
			p.KeyBits = 2048
			p.WildcardIPSubject = true
		}),
		synth("Cascade Systems Inc", "", classify.Organization, 2, func(p *classify.Product) {
			p.WrongDomainSubject = true
		}),
	)
	return ds
}

// Study2Deployments is the second study's mix: the first study's products
// persist ("All of our previously discovered malware was also present"),
// new malware appears (§6.4), telecoms surface, and the Unknown class
// grows — all weighted to approach Tables 6 and the §6.4 counts.
func Study2Deployments() []Deployment {
	scale := func(w float64) float64 { return w * 4.4 } // ≈ 50,761 / 11,764
	ds := []Deployment{
		named("Bitdefender", scale(4788)),
		named("PSafe Tecnologia S.A.", scale(1200)),
		named("ESET spol. s r. o.", scale(927)),
		named("Kaspersky Lab ZAO", scale(589)),
		named("Fortinet", scale(310)),
		named("NordNet", scale(61)),

		// Parental control shrinks in relative terms (0.84% of 50,761 ≈
		// 428).
		named("Kurupira.NET", 250),
		named("Qustodio", 100),
		named("ContentWatch, Inc.", 40),
		named("NetSpark, Inc.", 38),

		// Organizations.
		named("POSCO", scale(167)),
		named("Southern Company Services", scale(62)),
		named("Target Corporation", scale(52)),
		named("IBRD", scale(26)),
		named("Cloud Services", scale(23)),
		named("Lawrence Livermore National Laboratory", scale(30)),
		named("Lincoln Financial Group", scale(28)),
		named("DSP", 204), // 204 connections, 1 IP (§6.4)

		// CA claims shrink to 0.13% ≈ 68.
		named("DigiCert Inc", 68),

		// Study-1 malware persists at reduced share.
		named("Sendori Inc", 480),
		named("WebMakerPlus Ltd", 100),
		named("IopFailZeroAccessCreate", 30),
		named("Sweesh LTD", 40),
		named("AtomPark Software Inc", 28),

		// §6.4's five new malware discoveries, counts verbatim.
		named("Objectify Media Inc", 1069),
		named("Superfish, Inc.", 610),
		named("WiredTools LTD", 131),
		named("Internet Widgits Pty Ltd", 67),
		named("ImpressX OU", 16),

		// Suspicious and telecom cohorts, counts from §6.1/§6.4.
		named("kowsar", 268),
		named("LG UPLUS", 375),
		named("SK Broadband", 20),
		named("Turk Telekom", 18),
		named("Rostelecom", 18),
		named("Telkom Indonesia", 16),
		named("Information Technology", 33),
		named("MYInternetS", 36),

		// Null/blank issuers: 1,518 (§6.4).
		nullIssuer(1518),
	}
	ds = append(ds,
		synth("QuickScan Web Gateway", "", classify.BusinessPersonalFirewall, 30,
			func(p *classify.Product) { p.UpgradesKey = true }),
		synth("Meridian Networks Inc", "", classify.Organization, 180, func(p *classify.Product) {
			p.KeyBits = 2048
			p.WildcardIPSubject = true
		}),
	)
	// Pools shaped to Table 6 rows: BPF 70.93%, BusinessFW 2.43%,
	// PersonalFW 1.06%, Org 6.96%, School 0.95%, Unknown 10.75%.
	ds = append(ds, pool("SecureNet Firewall %03d", classify.BusinessPersonalFirewall, 60, 1570, nil)...)
	ds = append(ds, pool("Perimeter Security Appliance %03d", classify.BusinessFirewall, 30, 1231, nil)...)
	ds = append(ds, pool("HomeGuard Personal Firewall %d", classify.PersonalFirewall, 12, 536, nil)...)
	ds = append(ds, pool("Consolidated Holdings %03d Inc", classify.Organization, 170, 1500, func(p *classify.Product) {
		if stats.FNV1a(p.Name)%2 == 0 {
			p.KeyBits = 2048
		}
	})...)
	ds = append(ds, pool("Ridgeview University %02d", classify.School, 16, 482, nil)...)
	// The opaque pool: uncategorizable strings, the alarming §6.1 growth.
	ds = append(ds, pool("zqx%03dw", classify.Unknown, 120, 3600, nil)...)
	return ds
}
