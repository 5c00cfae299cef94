package clientpop

import (
	"math"
	"testing"

	"tlsfof/internal/classify"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

func pop(t *testing.T, s Study) *Population {
	t.Helper()
	p, err := New(s, geo.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCalibrationTranscription(t *testing.T) {
	byCode := map[string]CountryCalib{}
	for _, c := range Calibration {
		if _, dup := byCode[c.Code]; dup {
			t.Errorf("duplicate calibration row %s", c.Code)
		}
		byCode[c.Code] = c
	}
	// Spot checks against Tables 3 and 7.
	us := byCode["US"]
	if us.Tested1 != 285078 || us.Proxied1 != 2252 {
		t.Errorf("US study-1 row = %+v", us)
	}
	if math.Abs(us.Rate1()-0.0079) > 0.0002 {
		t.Errorf("US rate1 = %v", us.Rate1())
	}
	cn := byCode["CN"]
	if cn.Tested2 != 2549301 || cn.Proxied2 != 563 {
		t.Errorf("CN study-2 row = %+v", cn)
	}
	if math.Abs(cn.Rate2()-0.0002) > 0.0001 {
		t.Errorf("CN rate2 = %v", cn.Rate2())
	}
	fr := byCode["FR"]
	if math.Abs(fr.Rate1()-0.0109) > 0.0003 {
		t.Errorf("FR rate1 = %v (Table 3 says 1.09%%)", fr.Rate1())
	}
	// Residuals must be positive.
	if Other1Tested <= 0 || Other2Tested <= 0 || Other1Proxied <= 0 || Other2Proxied <= 0 {
		t.Fatal("other residuals went non-positive; calibration rows over-subtract")
	}
}

// rate is p.ProxyRate for an ISO code.
func rate(t *testing.T, p *Population, code string) float64 {
	t.Helper()
	i, ok := p.Geo.Index(code)
	if !ok {
		t.Fatalf("%s not in the registry", code)
	}
	return p.ProxyRate(i)
}

// sampleCodes draws n global-campaign countries and counts them by code.
func sampleCodes(p *Population, r *stats.RNG, n int) map[string]int {
	countries := p.Geo.Countries()
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[countries[p.SampleGlobalCountry(r)].Code]++
	}
	return counts
}

func TestProxyRates(t *testing.T) {
	p1 := pop(t, Study1)
	if r := rate(t, p1, "FR"); math.Abs(r-0.0109) > 0.0003 {
		t.Errorf("FR study-1 rate = %v", r)
	}
	if r := rate(t, p1, "ZW"); math.Abs(r-OtherRate1) > 1e-9 {
		t.Errorf("unlisted country rate = %v, want other rate %v", r, OtherRate1)
	}
	p2 := pop(t, Study2)
	if r := rate(t, p2, "CN"); r > 0.0004 {
		t.Errorf("CN study-2 rate = %v, want ≈0.0002", r)
	}
	if r := rate(t, p2, "US"); math.Abs(r-0.0086) > 0.0004 {
		t.Errorf("US study-2 rate = %v", r)
	}
	if r := rate(t, p2, "ZW"); math.Abs(r-OtherRate2) > 1e-9 {
		t.Errorf("unlisted country study-2 rate = %v, want other rate %v", r, OtherRate2)
	}
}

func TestGlobalCountryMixStudy1(t *testing.T) {
	p := pop(t, Study1)
	const draws = 300000
	counts := sampleCodes(p, stats.NewRNG(1), draws)
	// US and BR each ≈10% of study-1 impressions (Table 3 totals).
	usFrac := float64(counts["US"]) / draws
	if math.Abs(usFrac-0.0996) > 0.01 {
		t.Errorf("US mix fraction = %v, want ≈0.0996", usFrac)
	}
	brFrac := float64(counts["BR"]) / draws
	if math.Abs(brFrac-0.1044) > 0.01 {
		t.Errorf("BR mix fraction = %v, want ≈0.1044", brFrac)
	}
	if len(counts) < 100 {
		t.Errorf("global mix covers only %d countries", len(counts))
	}
}

func TestGlobalMixStudy2NetsOutTargetedImpressions(t *testing.T) {
	counts := sampleCodes(pop(t, Study2), stats.NewRNG(2), 300000)
	// Korea's 836k tests come almost entirely from the global campaign;
	// its share must far exceed Pakistan's (457k tests but 184k of its
	// own targeted impressions).
	if counts["KR"] <= counts["PK"] {
		t.Errorf("KR (%d) should outdraw PK (%d) in the global mix", counts["KR"], counts["PK"])
	}
}

func TestDeploymentWeightsStudy1(t *testing.T) {
	ds := Study1Deployments()
	total := TotalWeight(ds)
	// Must approximate the 11,764 proxied connections of Table 3.
	if math.Abs(total-11764) > 500 {
		t.Errorf("study-1 deployment weight = %v, want ≈11764", total)
	}
	byName := map[string]float64{}
	for _, d := range ds {
		key := d.Product.Name
		if key == "" {
			key = d.Product.CommonName
		}
		byName[key] += d.Weight
	}
	// Table 4 heads, verbatim.
	checks := map[string]float64{
		"Bitdefender":           4788,
		"PSafe Tecnologia S.A.": 1200,
		"Sendori Inc":           966,
		"":                      829, // null issuer
		"Kurupira.NET":          267,
		"DigiCert Inc":          49,
	}
	for name, want := range checks {
		if got := byName[name]; got != want {
			t.Errorf("weight[%q] = %v, want %v", name, got, want)
		}
	}
	// Distinct issuer strings should approach the paper's 20 + Other(332).
	if len(ds) < 200 {
		t.Errorf("only %d deployments; need a long tail", len(ds))
	}
}

func TestDeploymentWeightsStudy2(t *testing.T) {
	ds := Study2Deployments()
	total := TotalWeight(ds)
	if math.Abs(total-50761) > 3000 {
		t.Errorf("study-2 deployment weight = %v, want ≈50761", total)
	}
	byName := map[string]float64{}
	var malware float64
	for _, d := range ds {
		byName[d.Product.Name] += d.Weight
		if d.Product.Category == classify.Malware {
			malware += d.Weight
		}
	}
	// §6.4 counts, verbatim.
	for name, want := range map[string]float64{
		"Objectify Media Inc":      1069,
		"Superfish, Inc.":          610,
		"WiredTools LTD":           131,
		"Internet Widgits Pty Ltd": 67,
		"ImpressX OU":              16,
		"kowsar":                   268,
		"LG UPLUS":                 375,
		"DSP":                      204,
	} {
		if got := byName[name]; got != want {
			t.Errorf("weight[%q] = %v, want %v", name, got, want)
		}
	}
	// Malware total ≈ 2,571 (§6.4).
	if math.Abs(malware-2571) > 200 {
		t.Errorf("malware weight = %v, want ≈2571", malware)
	}
}

func TestSyntheticPoolNamesClassifyIntoIntendedCategory(t *testing.T) {
	cl := classify.NewClassifier()
	for _, study := range []func() []Deployment{Study1Deployments, Study2Deployments} {
		for _, d := range study() {
			p := d.Product
			name := p.Name
			cn := p.CommonName
			if cn == "" && name != "" {
				cn = name + " CA"
			}
			got := cl.Classify(name, cn, "")
			if got.Category != p.Category {
				t.Errorf("deployment %q: classifier says %v, population says %v",
					name, got.Category, p.Category)
			}
		}
	}
}

func TestCompletionProbabilities(t *testing.T) {
	p1 := pop(t, Study1)
	if got := p1.CompletionProb(hostdb.AuthorsHost.Name); math.Abs(got-CompletionRate1) > 1e-9 {
		t.Errorf("study-1 completion = %v", got)
	}
	p2 := pop(t, Study2)
	var sum float64
	for _, h := range p2.Hosts() {
		c := p2.CompletionProb(h.Name)
		if c <= 0 || c >= 1 {
			t.Errorf("completion prob for %s = %v", h.Name, c)
		}
		sum += c
	}
	// Sum over hosts ≈ tests per impression (2.42).
	if math.Abs(sum-TestsPerImpression2) > 0.15 {
		t.Errorf("summed completion = %v, want ≈%v", sum, TestsPerImpression2)
	}
	// The authors' site has the highest completion (tested first,
	// sequentially).
	authors := p2.CompletionProb(hostdb.AuthorsHost.Name)
	for _, h := range p2.Hosts() {
		if h.Name != hostdb.AuthorsHost.Name && p2.CompletionProb(h.Name) > authors {
			t.Errorf("%s completion exceeds the authors' site", h.Name)
		}
	}
}

func TestHostsPerStudy(t *testing.T) {
	if got := len(pop(t, Study1).Hosts()); got != 1 {
		t.Errorf("study-1 hosts = %d", got)
	}
	if got := len(pop(t, Study2).Hosts()); got != 17 {
		t.Errorf("study-2 hosts = %d, want 17 (authors' + Table 1)", got)
	}
}

func TestClientIPGeoConsistency(t *testing.T) {
	gdb := geo.NewDB()
	p, err := New(Study1, gdb)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	eg, _ := gdb.Index("EG")
	for i := 0; i < 200; i++ {
		ip := p.ClientIP(r, eg)
		c, ok := gdb.LookupUint32(ip)
		if !ok || c.Code != "EG" {
			t.Fatalf("EG client IP %x resolves to %v %v", ip, c, ok)
		}
	}
}

func TestDeploymentSamplerProportions(t *testing.T) {
	p := pop(t, Study1)
	r := stats.NewRNG(10)
	counts := map[string]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		_, d := p.SampleDeployment(r)
		counts[d.Product.Name]++
	}
	bitFrac := float64(counts["Bitdefender"]) / draws
	want := 4788.0 / TotalWeight(p.Deployments())
	if math.Abs(bitFrac-want) > 0.01 {
		t.Errorf("Bitdefender share = %v, want ≈%v", bitFrac, want)
	}
}

func TestNewRejectsUnknownStudy(t *testing.T) {
	if _, err := New(Study(9), geo.NewDB()); err == nil {
		t.Fatal("unknown study accepted")
	}
}

func TestTargetedImpressionsCopy(t *testing.T) {
	m := TargetedImpressions()
	if m["CN"] != Study2CNImpr || len(m) != 5 {
		t.Fatalf("targeted map = %v", m)
	}
	m["CN"] = 0
	if TargetedImpressions()["CN"] != Study2CNImpr {
		t.Fatal("TargetedImpressions returned shared state")
	}
}
