package store

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
	if got := db.ProxiedCountryList(); len(got) != 0 {
		t.Fatalf("a clean test made %v proxied countries", got)
	}

	// A proxied test from nowhere counts under "??" in the product's
	// countries and the proxied-country list: "", "??" and "US" are two.
	db.Ingest(proxiedMeasurement("", 1, "X", classify.Unknown))
	db.Ingest(proxiedMeasurement("??", 2, "X", classify.Unknown))
	db.Ingest(proxiedMeasurement("US", 3, "X", classify.Unknown))
	if p := db.Products(); len(p) != 1 || p[0] != (ProductAgg{Name: "X", Connections: 3, DistinctIPs: 3, Countries: 2}) {
		t.Fatalf("products = %+v", p)
	}
	got := db.ProxiedCountryList()
	sort.Strings(got)
	if !slices.Equal(got, []string{"??", "US"}) || db.ProxiedCountryCount() != 2 {
		t.Fatalf("proxied countries = %v (count %d), want [?? US]", got, db.ProxiedCountryCount())
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
	// Neither row names a product: both count as proxied, neither as a
	// product.
	if n := db.Negligence().Proxied; n != 2 {
		t.Errorf("negligence proxied = %d, want 2", n)
	}
	if p := db.Products(); len(p) != 0 {
		t.Errorf("product-less rows made products %+v", p)
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

	// MD5 on an upgraded key: a 2432-bit key, but not full strength.
	md5Up := proxiedMeasurement("US", 4, "X", classify.Malware)
	md5Up.Obs.KeyBits = 2432
	md5Up.Obs.WeakKey = false
	md5Up.Obs.MD5Signed = true
	db.Ingest(md5Up)

	// Full strength: a modern signature over a key that is not weak.
	strong := proxiedMeasurement("US", 5, "W", classify.Organization)
	strong.Obs.KeyBits = 2048
	strong.Obs.WeakKey = false
	db.Ingest(strong)

	// A weak key without MD5 is neither MD5 nor full strength.
	weak := proxiedMeasurement("US", 6, "V", classify.Unknown)
	weak.Obs.KeyBits = 512
	db.Ingest(weak)

	want := NegligenceStats{
		Proxied: 6,
		Key512:  2, Key1024: 1, Key2432: 2,
		MD5Signed: 2, MD5And512: 1, FullStrength: 2,
		IssuerCopied: 1, SubjectDrift: 1,
	}
	if n := db.Negligence(); n != want {
		t.Errorf("negligence = %+v\nwant         %+v", n, want)
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
	assertCountsEveryProxied(t, db, 10, 10)
}

// assertCountsEveryProxied fails unless db's queries over its proxied
// records count all proxied of them, withProduct of which name a
// product, whatever the store's retain limit.
func assertCountsEveryProxied(t *testing.T, db *DB, proxied, withProduct int) {
	t.Helper()
	if n := db.Negligence().Proxied; n != proxied {
		t.Errorf("Negligence().Proxied = %d, want %d", n, proxied)
	}
	conns := 0
	for _, p := range db.Products() {
		conns += p.Connections
	}
	if conns != withProduct {
		t.Errorf("Products() count %d connections, want %d", conns, withProduct)
	}
	issuers := 0
	for _, e := range db.IssuerOrgTop(0) {
		issuers += e.Count
	}
	if issuers != proxied {
		t.Errorf("IssuerOrgTop(0) counts %d, want %d", issuers, proxied)
	}
}

func TestByCampaignAndHostCategory(t *testing.T) {
	db := New(0)
	db.Ingest(cleanMeasurement("US", "qq.com", hostdb.Popular))
	db.Ingest(proxiedMeasurement("US", 1, "A", classify.Unknown))
	if recs := db.ProxiedRecords(); len(recs) != 1 || recs[0].Campaign != "test" {
		t.Fatalf("proxied records = %+v, want one of campaign test", recs)
	}
	cats := db.ByHostCategory()
	if cats[hostdb.Popular].Tested != 1 || cats[hostdb.Authors].Proxied != 1 {
		t.Fatalf("host cat aggs = %+v", cats)
	}
}

// TestWeightedRowsMatchIngest: a weighted row of count n through
// AddBatch leaves the store snapshot byte-identical to n clean Ingests of
// that cell under any campaign, interleaved with proxied rows, whether
// the batch is the one AddN built or its decode.
func TestWeightedRowsMatchIngest(t *testing.T) {
	cells := []struct {
		campaign, country string
		cat               hostdb.Category
		n                 uint32
	}{
		{"global", "US", hostdb.Popular, 5},
		{"global", "FR", hostdb.Authors, 1},
		{"", "US", hostdb.Popular, 3},      // no campaign
		{"global", "", hostdb.Business, 4}, // filed under "??"
		{"CN", "CN", hostdb.Pornographic, 70000},
		{"global", "US", hostdb.Popular, 2}, // the same cell again
	}
	rows := New(0)
	var b core.Batch
	for i, c := range cells {
		p := proxiedMeasurement(c.country, uint32(i), "A", classify.Unknown)
		p.Campaign = c.campaign
		rows.Ingest(p)
		b.Add(&p)
		m := cleanMeasurement(c.country, "h", c.cat)
		m.Campaign = c.campaign
		for j := uint32(0); j < c.n; j++ {
			rows.Ingest(m)
		}
		b.AddN(&m, c.n)
	}
	want := rows.AppendSnapshot(nil)
	built := New(0)
	built.AddBatch(&b)
	if got := built.AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Fatalf("weighted-row store differs from the Ingest store:\n%v\n%v", built.ByCountry(OrderByTested), rows.ByCountry(OrderByTested))
	}
	var back core.Batch
	if err := back.Decode(b.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	decoded := New(0)
	decoded.AddBatch(&back)
	if got := decoded.AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Fatalf("decoded weighted-row store differs from the Ingest store:\n%v\n%v", decoded.ByCountry(OrderByTested), rows.ByCountry(OrderByTested))
	}
}

// TestAddBatchMatchesIngest: AddBatch of a batch, built with Add or
// decoded from bytes, leaves the store exactly as Ingest of every
// measurement in order. A retained record from a decoded batch has
// strings of its own, not the batch's table strings.
func TestAddBatchMatchesIngest(t *testing.T) {
	ms := syntheticStream(400, 12)
	rows := New(0)
	for _, m := range ms {
		rows.Ingest(m)
	}
	var built, decoded core.Batch
	built.Reset(0, 0)
	for i := range ms {
		built.Add(&ms[i])
	}
	if err := decoded.Decode(built.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*core.Batch{"built": &built, "decoded": &decoded} {
		db := New(0)
		db.AddBatch(b)
		if got, want := renderStore(t, db), renderStore(t, rows); got != want {
			t.Fatalf("%s: AddBatch store differs from the Ingest store", name)
		}
	}
	db := New(0)
	db.AddBatch(&decoded)
	for i, rec := range db.ProxiedRecords() {
		for _, tu := range decoded.Tuples {
			if unsafe.StringData(rec.Host) == unsafe.StringData(tu.Host) {
				t.Fatalf("retained record %d shares its host with the decoded batch", i)
			}
		}
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
