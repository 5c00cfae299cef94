package study

import (
	"math"
	"net"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/store"
	"tlsfof/internal/tlswire"
)

// testScale keeps the suite fast while leaving enough samples for shape
// assertions (~140k tests for study 1).
const testScale = 0.05

func runStudy(t *testing.T, s clientpop.Study, seed uint64) *Result {
	t.Helper()
	res, err := Run(Config{Study: s, Seed: seed, Scale: testScale, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", what, got, want, tol)
	}
}

func TestStudy1HeadlineShape(t *testing.T) {
	res := runStudy(t, clientpop.Study1, 42)
	tot := res.Store.Totals()
	// ~2.86M tests at 5% scale.
	within(t, "tested", float64(tot.Tested), float64(clientpop.Study1Tests)*testScale, float64(clientpop.Study1Tests)*testScale*0.05)
	// Headline rate 0.41%, "1 in 250 TLS connections".
	within(t, "proxy rate", tot.Rate(), 0.0041, 0.0007)
	if res.Store.ProxiedCountryCount() < 50 {
		t.Errorf("proxied countries = %d, want broad coverage", res.Store.ProxiedCountryCount())
	}
}

func TestStudy1IssuerRanking(t *testing.T) {
	// Table 4's head must reproduce: Bitdefender first by a wide margin,
	// with PSafe/Sendori/ESET following.
	res := runStudy(t, clientpop.Study1, 43)
	top := res.Store.IssuerOrgTop(5)
	if len(top) < 5 {
		t.Fatalf("only %d issuers", len(top))
	}
	if top[0].Key != "Bitdefender" {
		t.Errorf("top issuer = %q, want Bitdefender", top[0].Key)
	}
	if top[0].Count < 2*top[1].Count {
		t.Errorf("Bitdefender (%d) should dominate #2 (%s %d) by >2x",
			top[0].Count, top[1].Key, top[1].Count)
	}
	seen := map[string]bool{}
	for _, e := range res.Store.IssuerOrgTop(8) {
		seen[e.Key] = true
	}
	for _, want := range []string{"PSafe Tecnologia S.A.", "Sendori Inc", "ESET spol. s r. o.", store.NullIssuerKey} {
		if !seen[want] {
			t.Errorf("expected %q in the issuer top-8", want)
		}
	}
}

func TestStudy1Classification(t *testing.T) {
	// Table 5 shape: firewalls dominate (~69%), organization ~10-13%,
	// malware ~9%, unknown ~7%.
	res := runStudy(t, clientpop.Study1, 44)
	counts := res.Store.CategoryCounts()
	total := res.Store.Totals().Proxied
	frac := func(c classify.Category) float64 { return float64(counts[c]) / float64(total) }
	within(t, "firewall share", frac(classify.BusinessPersonalFirewall), 0.69, 0.05)
	within(t, "organization share", frac(classify.Organization), 0.115, 0.04)
	within(t, "malware share", frac(classify.Malware), 0.09, 0.03)
	within(t, "unknown share", frac(classify.Unknown), 0.071, 0.025)
	if counts[classify.Telecom] != 0 {
		t.Errorf("study 1 telecom = %d, want 0 (Table 5)", counts[classify.Telecom])
	}
}

func TestStudy1Negligence(t *testing.T) {
	// §5.2 shape at 5% scale: ~50% of substitutes at 1024 bits; MD5 and
	// 512-bit cohorts present; issuer-copy present.
	res := runStudy(t, clientpop.Study1, 45)
	n := res.Store.Negligence()
	within(t, "1024-bit share", float64(n.Key1024)/float64(n.Proxied), 0.52, 0.08)
	if n.MD5Signed == 0 {
		t.Error("no MD5-signed substitutes at 5% scale (λ≈1.2); retry with different seed if flaky")
	}
	if n.MD5And512 > n.MD5Signed {
		t.Error("MD5∧512 exceeds MD5 count")
	}
	if n.Key512 < n.MD5And512 {
		t.Error("512-bit count below MD5∧512 count")
	}
	if n.NullIssuer == 0 {
		t.Error("no null-issuer substitutes")
	}
}

func TestStudy2HeadlineShape(t *testing.T) {
	res := runStudy(t, clientpop.Study2, 46)
	tot := res.Store.Totals()
	within(t, "tested", float64(tot.Tested), float64(clientpop.Study2Tests)*testScale, float64(clientpop.Study2Tests)*testScale*0.05)
	within(t, "proxy rate", tot.Rate(), 0.0041, 0.0007)

	// §6.2 geography: the five targeted countries land in the top-6 by
	// tests; China's rate is exceptionally low; the US rate is high.
	rows := res.Store.ByCountry(store.OrderByTested)
	top6 := map[string]bool{}
	for _, r := range rows[:6] {
		top6[r.Code] = true
	}
	for _, target := range []string{"CN", "UA", "RU", "EG", "PK"} {
		if !top6[target] {
			t.Errorf("targeted country %s not in the top-6 by tests", target)
		}
	}
	var cn, us store.CountryRow
	for _, r := range rows {
		switch r.Code {
		case "CN":
			cn = r
		case "US":
			us = r
		}
	}
	if cn.Rate() > 0.0006 {
		t.Errorf("China rate = %.4f%%, want ≈0.02%%", 100*cn.Rate())
	}
	if us.Rate() < 0.006 {
		t.Errorf("US rate = %.4f%%, want ≈0.86%%", 100*us.Rate())
	}
	if us.Rate() < 10*cn.Rate() {
		t.Errorf("US (%.4f%%) should exceed China (%.4f%%) by >10x", 100*us.Rate(), 100*cn.Rate())
	}
}

func TestStudy2HostTypeUniformity(t *testing.T) {
	// Table 8: "The percentage of proxied traffic to each type of host is
	// nearly identical" — no blacklisting.
	res := runStudy(t, clientpop.Study2, 47)
	byCat := res.Store.ByHostCategory()
	var min, max float64 = 1, 0
	for _, cat := range hostdb.AllCategories {
		r := byCat[cat].Rate()
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
		if byCat[cat].Tested == 0 {
			t.Fatalf("host category %v has no tests", cat)
		}
	}
	if max-min > 0.001 {
		t.Errorf("host-type rates spread %.4f%%–%.4f%%; want nearly identical", 100*min, 100*max)
	}
}

func TestStudy2ClassificationShifts(t *testing.T) {
	// §6.1: Unknown grows (7.14% → 10.75%), Malware shrinks (8.65% →
	// 5.06%), Telecom appears.
	res1 := runStudy(t, clientpop.Study1, 48)
	res2 := runStudy(t, clientpop.Study2, 48)
	c1, p1 := res1.Store.CategoryCounts(), res1.Store.Totals().Proxied
	c2, p2 := res2.Store.CategoryCounts(), res2.Store.Totals().Proxied
	unknown1 := float64(c1[classify.Unknown]) / float64(p1)
	unknown2 := float64(c2[classify.Unknown]) / float64(p2)
	if unknown2 <= unknown1 {
		t.Errorf("unknown share did not grow: %.3f → %.3f", unknown1, unknown2)
	}
	malware1 := float64(c1[classify.Malware]) / float64(p1)
	malware2 := float64(c2[classify.Malware]) / float64(p2)
	if malware2 >= malware1 {
		t.Errorf("malware share did not shrink: %.3f → %.3f", malware1, malware2)
	}
	if c2[classify.Telecom] == 0 {
		t.Error("study 2 telecom cohort missing")
	}
}

func TestStudy2CampaignStats(t *testing.T) {
	// Table 2 shape: six campaigns, global dominates spend, total near
	// $6,090 and 5.08M impressions.
	res := runStudy(t, clientpop.Study2, 49)
	if len(res.Outcomes) != 6 {
		t.Fatalf("campaigns = %d", len(res.Outcomes))
	}
	within(t, "total impressions", float64(res.Total.Impressions), float64(clientpop.Study2Impressions), float64(clientpop.Study2Impressions)*0.10)
	within(t, "total cost $", res.Total.CostDollars(), 6090, 600)
	var global *int
	for i := range res.Outcomes {
		if res.Outcomes[i].Country == "" {
			global = &res.Outcomes[i].Impressions
		}
	}
	if global == nil || *global < res.Total.Impressions/2 {
		t.Error("global campaign should dominate impressions")
	}
}

func TestDeterminism(t *testing.T) {
	a := runStudy(t, clientpop.Study1, 77)
	b := runStudy(t, clientpop.Study1, 77)
	ta, tb := a.Store.Totals(), b.Store.Totals()
	if ta != tb {
		t.Fatalf("same seed, different totals: %+v vs %+v", ta, tb)
	}
	ia, ib := a.Store.IssuerOrgTop(10), b.Store.IssuerOrgTop(10)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("same seed, different issuer table at %d: %v vs %v", i, ia[i], ib[i])
		}
	}
	c := runStudy(t, clientpop.Study1, 78)
	if c.Store.Totals() == ta {
		t.Error("different seeds produced identical totals (suspicious)")
	}
}

func TestHuangBaselineHalvesRate(t *testing.T) {
	base, err := RunHuangBaseline(Config{Study: clientpop.Study1, Seed: 42, Scale: testScale, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: broad 0.41% vs Huang 0.20%.
	within(t, "whale-only rate", base.Rate(), 0.0020, 0.0006)
	if base.Tested == 0 {
		t.Fatal("baseline tested nothing")
	}
}

// TestWireFastEquivalence cross-checks fast mode against the wire path:
// for a set of behaviorally distinct products, the observation derived
// from a real socket probe through a real interceptor must match the
// fast-mode factory's cached observation in every analysis-relevant field.
func TestWireFastEquivalence(t *testing.T) {
	hosts := hostdb.FirstStudyHosts()
	auth, err := BuildAuthoritative(hosts, certgen.DefaultPool)
	if err != nil {
		t.Fatal(err)
	}
	classifier := classify.NewClassifier()
	deps := clientpop.Study1Deployments()
	factory, err := newObsFactory(classifier, certgen.DefaultPool, hosts, auth, deps)
	if err != nil {
		t.Fatal(err)
	}

	// Authoritative wire server.
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()
	go tlswire.Server(upstreamLn, tlswire.ResponderConfig{
		Chain: func(sni string) ([][]byte, error) { return auth.Chains[sni], nil },
	}, nil)

	targets := map[string]bool{
		"Bitdefender":             true, // 2048-bit, plain
		"Kurupira.NET":            true, // 1024-bit parental
		"DigiCert Inc":            true, // issuer copy
		"IopFailZeroAccessCreate": true, // shared 512 + MD5
		"":                        true, // null issuer
	}
	host := hosts[0]
	for depIdx, dep := range deps {
		name := dep.Product.Name
		if name == "" && dep.Product.CommonName != "" {
			name = dep.Product.CommonName
		}
		key := dep.Product.Name
		if !targets[key] && !targets[name] {
			continue
		}
		delete(targets, key)
		delete(targets, name)

		fast, err := factory.observation(depIdx, 0)
		if err != nil {
			t.Fatalf("%s: fast observation: %v", name, err)
		}

		// Wire path: interceptor with the product profile.
		engine, err := proxyengine.New(proxyengine.FromProduct(dep.Product), proxyengine.Options{Pool: certgen.DefaultPool})
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		ic := proxyengine.NewInterceptor(engine, func(string) (net.Conn, error) {
			return net.Dial("tcp", upstreamLn.Addr().String())
		})
		proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ic.Serve(proxyLn, nil)
		res, err := tlswire.ProbeAddr(proxyLn.Addr().String(), tlswire.ProbeOptions{
			ServerName: host.Name, Timeout: 5 * time.Second,
		})
		proxyLn.Close()
		if err != nil {
			t.Fatalf("%s: wire probe: %v", name, err)
		}
		wire, err := core.Observe(host.Name, auth.Chains[host.Name], res.ChainDER, classifier)
		if err != nil {
			t.Fatalf("%s: wire observe: %v", name, err)
		}

		check := func(field string, fastV, wireV any) {
			if fastV != wireV {
				t.Errorf("%s: %s differs: fast=%v wire=%v", name, field, fastV, wireV)
			}
		}
		check("Proxied", fast.Proxied, wire.Proxied)
		check("IssuerOrg", fast.IssuerOrg, wire.IssuerOrg)
		check("IssuerCN", fast.IssuerCN, wire.IssuerCN)
		check("NullIssuer", fast.NullIssuer, wire.NullIssuer)
		check("KeyBits", fast.KeyBits, wire.KeyBits)
		check("MD5Signed", fast.MD5Signed, wire.MD5Signed)
		check("WeakKey", fast.WeakKey, wire.WeakKey)
		check("IssuerCopied", fast.IssuerCopied, wire.IssuerCopied)
		check("SubjectDrift", fast.SubjectDrift, wire.SubjectDrift)
		check("Category", fast.Category, wire.Category)
		check("ProductName", fast.ProductName, wire.ProductName)
	}
	for missing := range targets {
		t.Errorf("target product %q not found in deployments", missing)
	}
}

func TestScaleParameter(t *testing.T) {
	small, err := Run(Config{Study: clientpop.Study1, Seed: 1, Scale: 0.01, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	tot := small.Store.Totals()
	within(t, "1% scale tested", float64(tot.Tested), float64(clientpop.Study1Tests)*0.01, float64(clientpop.Study1Tests)*0.01*0.1)
}

// TestBadScaleIsRefused: a scale no run can mean is an error from both
// entry points, not an empty study (NaN, Inf) or a silent paper-size one
// (negative); 0 still means the 1.0 default.
func TestBadScaleIsRefused(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cfg := Config{Study: clientpop.Study1, Seed: 1, Scale: scale, Pool: certgen.DefaultPool}
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run at scale %v: no error", scale)
		}
		if _, err := RunHuangBaseline(cfg); err == nil {
			t.Errorf("RunHuangBaseline at scale %v: no error", scale)
		}
	}
	cfg := Config{Pool: certgen.DefaultPool}
	if _, err := worldFor(&cfg, nil); err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 1 || cfg.Study != clientpop.Study1 {
		t.Errorf("zero Config became scale %v, study %v; want 1.0 and study 1", cfg.Scale, cfg.Study)
	}
}

func TestBuildAuthoritative(t *testing.T) {
	hosts := hostdb.SecondStudyHosts()
	auth, err := BuildAuthoritative(hosts, certgen.DefaultPool)
	if err != nil {
		t.Fatal(err)
	}
	if len(auth.Chains) != len(hosts) {
		t.Fatalf("chains = %d, want %d", len(auth.Chains), len(hosts))
	}
	// The authors' site must be a DigiCert issuance (§5.2).
	leaf := auth.Leaves[hostdb.AuthorsHost.Name]
	if org := leaf.Cert.Issuer.Organization[0]; org != "DigiCert Inc" {
		t.Errorf("authors' site issuer = %q", org)
	}
	// Every leaf is 2048-bit, as the paper's original certificate.
	for host, l := range auth.Leaves {
		if bits := l.Key.PublicKey.Size() * 8; bits != 2048 {
			t.Errorf("%s leaf = %d bits", host, bits)
		}
	}
}
