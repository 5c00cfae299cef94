// Package analysis renders the paper's evaluation artifacts — Tables 1–8,
// the §5.2 negligent-behavior report, and the Figure 7 prevalence heatmap —
// from a populated measurement store. Each renderer prints the same rows
// the paper reports, so a study run and the PDF can be compared
// side by side.
package analysis

import (
	"fmt"
	"io"
	"strings"

	"tlsfof/internal/adsim"
	"tlsfof/internal/classify"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/store"
)

// line prints a table rule of the given width.
func line(w io.Writer, width int) {
	fmt.Fprintln(w, strings.Repeat("-", width))
}

// Table1 renders the second-study probe host list grouped by category
// (paper Table 1).
func Table1(w io.Writer, hosts []hostdb.Host) error {
	byCat := make(map[hostdb.Category][]string)
	for _, h := range hosts {
		if h.Category == hostdb.Authors {
			continue
		}
		byCat[h.Category] = append(byCat[h.Category], h.Name)
	}
	fmt.Fprintln(w, "Table 1: Second Study Websites Probed")
	line(w, 64)
	for _, cat := range []hostdb.Category{hostdb.Popular, hostdb.Business, hostdb.Pornographic} {
		fmt.Fprintf(w, "%-14s %s\n", cat.String()+":", strings.Join(byCat[cat], ", "))
	}
	return nil
}

// Table2 renders campaign statistics (paper Table 2).
func Table2(w io.Writer, outcomes []adsim.Outcome, total adsim.Outcome) error {
	fmt.Fprintln(w, "Table 2: Campaign Statistics")
	line(w, 58)
	fmt.Fprintf(w, "%-12s %12s %8s %12s\n", "Campaign", "Impressions", "Clicks", "Cost")
	line(w, 58)
	for _, o := range outcomes {
		fmt.Fprintf(w, "%-12s %12d %8d %11.2f$\n", o.Campaign, o.Impressions, o.Clicks, o.CostDollars())
	}
	line(w, 58)
	fmt.Fprintf(w, "%-12s %12d %8d %11.2f$\n", "Total", total.Impressions, total.Clicks, total.CostDollars())
	return nil
}

// countryName resolves a display name for a country row.
func countryName(gdb *geo.DB, code string) string {
	if gdb != nil {
		if c, ok := gdb.Country(code); ok {
			return c.Name
		}
	}
	if code == "??" {
		return "(unresolved)"
	}
	return code
}

// CountryTable renders Tables 3 and 7: per-country tested/proxied rows,
// top-n plus an Other row plus the total. order selects Table 3's
// proxied-descending (first study) or Table 7's tested-descending layout.
func CountryTable(w io.Writer, db *store.DB, gdb *geo.DB, title string, order store.CountryOrder, topN int) error {
	rows := db.ByCountry(order)
	totals := db.Totals()
	fmt.Fprintln(w, title)
	line(w, 66)
	fmt.Fprintf(w, "%4s %-20s %9s %12s %9s\n", "Rank", "Country", "Proxied", "Total", "Percent")
	line(w, 66)
	shown := 0
	var otherTested, otherProxied, otherCountries int
	for _, row := range rows {
		if shown < topN {
			fmt.Fprintf(w, "%4d %-20s %9d %12d %8.2f%%\n",
				shown+1, countryName(gdb, row.Code), row.Proxied, row.Tested, 100*row.Rate())
			shown++
			continue
		}
		otherTested += row.Tested
		otherProxied += row.Proxied
		otherCountries++
	}
	if otherCountries > 0 {
		pct := 0.0
		if otherTested > 0 {
			pct = 100 * float64(otherProxied) / float64(otherTested)
		}
		fmt.Fprintf(w, "%4s %-20s %9d %12d %8.2f%%\n", "",
			fmt.Sprintf("Other (%d)", otherCountries), otherProxied, otherTested, pct)
	}
	line(w, 66)
	fmt.Fprintf(w, "%4s %-20s %9d %12d %8.2f%%\n", "", "Total",
		totals.Proxied, totals.Tested, 100*totals.Rate())
	return nil
}

// Table3 is the first study's by-country table (proxied-descending).
func Table3(w io.Writer, db *store.DB, gdb *geo.DB) error {
	return CountryTable(w, db, gdb, "Table 3: Proxied connections by country (1st study)", store.OrderByProxied, 20)
}

// Table7 is the second study's by-country table (tested-descending).
func Table7(w io.Writer, db *store.DB, gdb *geo.DB) error {
	return CountryTable(w, db, gdb, "Table 7: Connections tested by country (2nd study)", store.OrderByTested, 20)
}

// Table4 renders the Issuer Organization histogram (paper Table 4).
func Table4(w io.Writer, db *store.DB, topN int) error {
	entries := db.IssuerOrgTop(0)
	fmt.Fprintln(w, "Table 4: Issuer Organization field values")
	line(w, 56)
	fmt.Fprintf(w, "%4s %-38s %11s\n", "Rank", "Issuer Organization", "Connections")
	line(w, 56)
	var other, otherDistinct int
	for i, e := range entries {
		if i < topN {
			fmt.Fprintf(w, "%4d %-38s %11d\n", i+1, e.Key, e.Count)
			continue
		}
		other += e.Count
		otherDistinct++
	}
	if otherDistinct > 0 {
		fmt.Fprintf(w, "%4s %-38s %11d\n", "", fmt.Sprintf("Other (%d)", otherDistinct), other)
	}
	return nil
}

// ClassificationTable renders Tables 5 and 6: proxied connections per
// claimed-issuer category, in the paper's row order.
func ClassificationTable(w io.Writer, db *store.DB, title string) error {
	counts := db.CategoryCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	fmt.Fprintln(w, title)
	line(w, 56)
	fmt.Fprintf(w, "%-28s %12s %9s\n", "Proxy Type", "Connections", "Percent")
	line(w, 56)
	for _, cat := range classify.AllCategories {
		n := counts[cat]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		fmt.Fprintf(w, "%-28s %12d %8.2f%%\n", cat.String(), n, pct)
	}
	return nil
}

// Table5 is the first study's classification table.
func Table5(w io.Writer, db *store.DB) error {
	return ClassificationTable(w, db, "Table 5: Classification of claimed issuer in 1st study")
}

// Table6 is the second study's classification table.
func Table6(w io.Writer, db *store.DB) error {
	return ClassificationTable(w, db, "Table 6: Classification of claimed issuer in 2nd study")
}

// Table8 renders the by-host-type breakdown (paper Table 8).
func Table8(w io.Writer, db *store.DB) error {
	byCat := db.ByHostCategory()
	fmt.Fprintln(w, "Table 8: Proxied connection breakdown by host type")
	line(w, 64)
	fmt.Fprintf(w, "%-14s %12s %9s %16s\n", "Website Type", "Connections", "Proxied", "Percent Proxied")
	line(w, 64)
	for _, cat := range hostdb.AllCategories {
		a := byCat[cat]
		fmt.Fprintf(w, "%-14s %12d %9d %15.2f%%\n", cat, a.Tested, a.Proxied, 100*a.Rate())
	}
	return nil
}

// Negligence renders the §5.2 negligent/suspicious behavior report.
func Negligence(w io.Writer, db *store.DB) error {
	n := db.Negligence()
	pct := func(k int) float64 {
		if n.Proxied == 0 {
			return 0
		}
		return 100 * float64(k) / float64(n.Proxied)
	}
	fmt.Fprintln(w, "Negligent and suspicious behavior (§5.2)")
	line(w, 66)
	fmt.Fprintf(w, "%-46s %8s %8s\n", "Behavior", "Count", "Percent")
	line(w, 66)
	rows := []struct {
		label string
		count int
	}{
		{"Substitute key downgraded to 1024 bits", n.Key1024},
		{"Substitute key downgraded to 512 bits", n.Key512},
		{"Substitute key upgraded to 2432 bits", n.Key2432},
		{"Substitute certificate signed with MD5", n.MD5Signed},
		{"MD5 signature AND 512-bit key", n.MD5And512},
		{"Full-strength substitute (>=2048-bit)", n.FullStrength},
		{"Claims authoritative issuer without its key", n.IssuerCopied},
		{"Subject does not match probed host", n.SubjectDrift},
		{"Null/blank issuer fields", n.NullIssuer},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-46s %8d %7.2f%%\n", r.label, r.count, pct(r.count))
	}
	line(w, 66)
	fmt.Fprintf(w, "%-46s %8d\n", "Proxied connections (denominator)", n.Proxied)
	return nil
}

// Products renders the per-product connection/IP/country diversity view
// backing the §6.4 kowsar-vs-DSP analysis.
func Products(w io.Writer, db *store.DB, topN int) error {
	prods := db.Products()
	fmt.Fprintln(w, "Claimed products: connection and origin diversity (§6.4)")
	line(w, 70)
	fmt.Fprintf(w, "%-38s %11s %8s %9s\n", "Product", "Connections", "IPs", "Countries")
	line(w, 70)
	for i, p := range prods {
		if topN > 0 && i >= topN {
			break
		}
		fmt.Fprintf(w, "%-38s %11d %8d %9d\n", p.Name, p.Connections, p.DistinctIPs, p.Countries)
	}
	return nil
}
