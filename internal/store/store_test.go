package store

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
)

func cleanMeasurement(country, host string, cat hostdb.Category) core.Measurement {
	return core.Measurement{
		Time:         time.Date(2014, 1, 10, 0, 0, 0, 0, time.UTC),
		ClientIP:     0x01020304,
		Country:      country,
		Host:         host,
		HostCategory: cat,
		Campaign:     "test",
		Obs:          core.Observation{Proxied: false, KeyBits: 2048},
	}
}

func proxiedMeasurement(country string, ip uint32, issuer string, cat classify.Category) core.Measurement {
	m := cleanMeasurement(country, "tlsresearch.byu.edu", hostdb.Authors)
	m.ClientIP = ip
	m.Obs = core.Observation{
		Proxied:     true,
		IssuerOrg:   issuer,
		KeyBits:     1024,
		WeakKey:     true,
		Category:    cat,
		ProductName: issuer,
	}
	return m
}

func TestTotalsAndRates(t *testing.T) {
	db := New(0)
	for i := 0; i < 99; i++ {
		db.Ingest(cleanMeasurement("US", "h.example", hostdb.Popular))
	}
	db.Ingest(proxiedMeasurement("US", 1, "Bitdefender", classify.BusinessPersonalFirewall))
	tot := db.Totals()
	if tot.Tested != 100 || tot.Proxied != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Rate() != 0.01 {
		t.Fatalf("rate = %v", tot.Rate())
	}
	if (Agg{}).Rate() != 0 {
		t.Fatal("empty agg rate != 0")
	}
}

func TestByCountryOrdering(t *testing.T) {
	db := New(0)
	// FR: 2 proxied of 10; DE: 1 proxied of 50.
	for i := 0; i < 8; i++ {
		db.Ingest(cleanMeasurement("FR", "h", hostdb.Authors))
	}
	db.Ingest(proxiedMeasurement("FR", 1, "A", classify.Unknown))
	db.Ingest(proxiedMeasurement("FR", 2, "A", classify.Unknown))
	for i := 0; i < 49; i++ {
		db.Ingest(cleanMeasurement("DE", "h", hostdb.Authors))
	}
	db.Ingest(proxiedMeasurement("DE", 3, "A", classify.Unknown))

	byProxied := db.ByCountry(OrderByProxied)
	if byProxied[0].Code != "FR" {
		t.Errorf("proxied order head = %s, want FR", byProxied[0].Code)
	}
	byTested := db.ByCountry(OrderByTested)
	if byTested[0].Code != "DE" {
		t.Errorf("tested order head = %s, want DE", byTested[0].Code)
	}
}

func TestUnresolvedCountryBucket(t *testing.T) {
	db := New(0)
	m := cleanMeasurement("", "h", hostdb.Authors)
	db.Ingest(m)
	rows := db.ByCountry(OrderByTested)
	if len(rows) != 1 || rows[0].Code != "??" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestIssuerCounterNullKey(t *testing.T) {
	db := New(0)
	m := proxiedMeasurement("US", 1, "", classify.Unknown)
	m.Obs.IssuerOrg = ""
	m.Obs.IssuerCN = ""
	m.Obs.NullIssuer = true
	db.Ingest(m)
	// CN fallback: issuer org empty but CN present.
	m2 := proxiedMeasurement("US", 2, "", classify.Malware)
	m2.Obs.IssuerCN = "IopFailZeroAccessCreate"
	db.Ingest(m2)

	top := db.IssuerOrgTop(0)
	found := map[string]int{}
	for _, e := range top {
		found[e.Key] = e.Count
	}
	if found[NullIssuerKey] != 1 {
		t.Errorf("null key count = %d", found[NullIssuerKey])
	}
	if found["IopFailZeroAccessCreate"] != 1 {
		t.Errorf("CN fallback count = %d", found["IopFailZeroAccessCreate"])
	}
	if db.Negligence().NullIssuer != 1 {
		t.Errorf("negligence null issuer = %d", db.Negligence().NullIssuer)
	}
}

func TestNegligenceCounters(t *testing.T) {
	db := New(0)
	md5 := proxiedMeasurement("US", 1, "Z", classify.Malware)
	md5.Obs.KeyBits = 512
	md5.Obs.MD5Signed = true
	db.Ingest(md5)

	up := proxiedMeasurement("US", 2, "Y", classify.Organization)
	up.Obs.KeyBits = 2432
	up.Obs.WeakKey = false
	db.Ingest(up)

	copied := proxiedMeasurement("US", 3, "DigiCert Inc", classify.CertificateAuthority)
	copied.Obs.IssuerCopied = true
	copied.Obs.SubjectDrift = true
	db.Ingest(copied)

	n := db.Negligence()
	if n.Key512 != 1 || n.MD5Signed != 1 || n.MD5And512 != 1 {
		t.Errorf("md5/512 counters: %+v", n)
	}
	if n.Key2432 != 1 || n.FullStrength != 1 {
		t.Errorf("upgrade counters: %+v", n)
	}
	if n.IssuerCopied != 1 || n.SubjectDrift != 1 {
		t.Errorf("forgery counters: %+v", n)
	}
	if n.Proxied != 3 {
		t.Errorf("denominator = %d", n.Proxied)
	}
}

func TestProductDiversityTracking(t *testing.T) {
	// The §6.4 signal: kowsar-like (many IPs) vs DSP-like (one IP).
	db := New(0)
	for i := uint32(0); i < 10; i++ {
		m := proxiedMeasurement("IR", 1000+i, "kowsar", classify.Unknown)
		db.Ingest(m)
	}
	for i := 0; i < 10; i++ {
		m := proxiedMeasurement("IE", 42, "DSP", classify.Organization)
		db.Ingest(m)
	}
	prods := db.Products()
	if len(prods) != 2 {
		t.Fatalf("products = %d", len(prods))
	}
	byName := map[string]ProductAgg{}
	for _, p := range prods {
		byName[p.Name] = p
	}
	if byName["kowsar"].DistinctIPs != 10 {
		t.Errorf("kowsar IPs = %d", byName["kowsar"].DistinctIPs)
	}
	if byName["DSP"].DistinctIPs != 1 {
		t.Errorf("DSP IPs = %d", byName["DSP"].DistinctIPs)
	}
}

func TestRetainLimit(t *testing.T) {
	db := New(3)
	for i := uint32(0); i < 10; i++ {
		db.Ingest(proxiedMeasurement("US", i, "A", classify.Unknown))
	}
	if got := len(db.ProxiedRecords()); got != 3 {
		t.Fatalf("retained = %d, want 3", got)
	}
	if db.Totals().Proxied != 10 {
		t.Fatal("aggregates must not be capped by retain limit")
	}
}

func TestByCampaignAndHostCategory(t *testing.T) {
	db := New(0)
	db.Ingest(cleanMeasurement("US", "qq.com", hostdb.Popular))
	db.Ingest(proxiedMeasurement("US", 1, "A", classify.Unknown))
	camp := db.ByCampaign()
	if camp["test"].Tested != 2 || camp["test"].Proxied != 1 {
		t.Fatalf("campaign agg = %+v", camp["test"])
	}
	cats := db.ByHostCategory()
	if cats[hostdb.Popular].Tested != 1 || cats[hostdb.Authors].Proxied != 1 {
		t.Fatalf("host cat aggs = %+v", cats)
	}
}

// TestAddCleanMatchesIngest: AddClean(c, k, cat, n) leaves the store
// snapshot byte-identical to n clean Ingests of that cell, interleaved
// with proxied rows.
func TestAddCleanMatchesIngest(t *testing.T) {
	cells := []struct {
		campaign, country string
		cat               hostdb.Category
		n                 int
	}{
		{"global", "US", hostdb.Popular, 5},
		{"global", "FR", hostdb.Authors, 1},
		{"", "US", hostdb.Popular, 3},      // no campaign aggregate
		{"global", "", hostdb.Business, 4}, // filed under "??"
		{"CN", "CN", hostdb.Pornographic, 0},
		{"global", "US", hostdb.Popular, 2}, // the same cell again
	}
	rows, bulk := New(0), New(0)
	for i, c := range cells {
		p := proxiedMeasurement(c.country, uint32(i), "A", classify.Unknown)
		p.Campaign = c.campaign
		rows.Ingest(p)
		bulk.Ingest(p)
		m := cleanMeasurement(c.country, "h", c.cat)
		m.Campaign = c.campaign
		for j := 0; j < c.n; j++ {
			rows.Ingest(m)
		}
		bulk.AddClean(c.campaign, c.country, c.cat, c.n)
	}
	if got, want := bulk.AppendSnapshot(nil), rows.AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Fatalf("AddClean store differs from the Ingest store:\n%v\n%v", bulk.ByCountry(OrderByTested), rows.ByCountry(OrderByTested))
	}

	// n = 0 adds nothing, not even an empty aggregate key.
	empty := New(0)
	empty.AddClean("global", "US", hostdb.Popular, 0)
	if !bytes.Equal(empty.AppendSnapshot(nil), New(0).AppendSnapshot(nil)) {
		t.Fatalf("AddClean of 0 tests changed an empty store: %+v", empty.ByCountry(OrderByTested))
	}
}

func TestCSVExport(t *testing.T) {
	db := New(0)
	db.Ingest(proxiedMeasurement("FR", 0x01020304, "Bitdefender", classify.BusinessPersonalFirewall))
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "1.2.3.4") || !strings.Contains(lines[1], "Bitdefender") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestJSONLExport(t *testing.T) {
	db := New(0)
	db.Ingest(proxiedMeasurement("FR", 0x01020304, "Bitdefender", classify.BusinessPersonalFirewall))
	var buf bytes.Buffer
	if err := db.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"client_ip":"1.2.3.4"`) {
		t.Fatalf("jsonl = %q", buf.String())
	}
}

func TestConcurrentIngest(t *testing.T) {
	db := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i%10 == 0 {
					db.Ingest(proxiedMeasurement("US", uint32(g*1000+i), "A", classify.Unknown))
				} else {
					db.Ingest(cleanMeasurement("US", "h", hostdb.Authors))
				}
			}
		}(g)
	}
	wg.Wait()
	tot := db.Totals()
	if tot.Tested != 8000 || tot.Proxied != 800 {
		t.Fatalf("concurrent totals = %+v", tot)
	}
}

func TestStringSummary(t *testing.T) {
	db := New(0)
	db.Ingest(proxiedMeasurement("US", 1, "A", classify.Unknown))
	if !strings.Contains(db.String(), "1 tested, 1 proxied") {
		t.Fatalf("summary = %q", db.String())
	}
}

// Property: for any ingest sequence, per-country tested sums equal the
// total tested, and proxied <= tested everywhere.
func TestQuickAggregateConsistency(t *testing.T) {
	f := func(events []struct {
		Country uint8
		Proxied bool
	}) bool {
		db := New(0)
		codes := []string{"US", "FR", "CN", "BR"}
		for _, e := range events {
			m := cleanMeasurement(codes[int(e.Country)%len(codes)], "h", hostdb.Authors)
			if e.Proxied {
				m.Obs.Proxied = true
				m.Obs.Category = classify.Unknown
			}
			db.Ingest(m)
		}
		tot := db.Totals()
		sumT, sumP := 0, 0
		for _, row := range db.ByCountry(OrderByTested) {
			if row.Proxied > row.Tested {
				return false
			}
			sumT += row.Tested
			sumP += row.Proxied
		}
		return sumT == tot.Tested && sumP == tot.Proxied
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
