package store

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

// mergeFixture builds a varied measurement stream straight from RNG draws
// (no crypto), exercising every aggregate Merge must fold.
func mergeFixture(n int) []core.Measurement {
	r := stats.NewRNG(77)
	hosts := []struct {
		name string
		cat  hostdb.Category
	}{
		{"www.facebook.com", hostdb.Popular},
		{"smallbusiness.example", hostdb.Business},
		{"adult.example", hostdb.Pornographic},
	}
	countries := []string{"US", "RO", "KR", ""}
	products := []string{"", "Sendori, Inc", "Kurupira.NET"}
	epoch := time.Date(2014, time.January, 6, 0, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, n)
	for i := range ms {
		h := hosts[r.Intn(len(hosts))]
		m := core.Measurement{
			Time:         epoch.Add(time.Duration(r.Intn(1000)) * time.Minute),
			ClientIP:     uint32(r.Intn(1 << 20)),
			Country:      countries[r.Intn(len(countries))],
			Host:         h.name,
			HostCategory: h.cat,
			Campaign:     []string{"one", "two"}[r.Intn(2)],
		}
		if r.Intn(5) == 0 {
			m.Obs = core.Observation{
				Proxied:      true,
				IssuerOrg:    []string{"", "Bitdefender", "POSCO"}[r.Intn(3)],
				KeyBits:      []int{512, 1024, 2048, 2432}[r.Intn(4)],
				MD5Signed:    r.Bool(0.3),
				IssuerCopied: r.Bool(0.1),
				SubjectDrift: r.Bool(0.1),
				NullIssuer:   r.Bool(0.1),
				ProductName:  products[r.Intn(len(products))],
			}
			m.Obs.WeakKey = m.Obs.KeyBits < 2048
		}
		ms[i] = m
	}
	return ms
}

func TestMergeEqualsSequential(t *testing.T) {
	ms := mergeFixture(10000)

	seq := New(0)
	for _, m := range ms {
		seq.Ingest(m)
	}
	// Merge of one store only sorts its records into the canonical order.
	image := Merge(0, seq).AppendSnapshot(nil)

	for _, shards := range []int{1, 3, 8} {
		dbs := make([]*DB, shards)
		for i := range dbs {
			dbs[i] = New(0)
		}
		for i, m := range ms {
			dbs[i%shards].Ingest(m)
		}
		got := Merge(0, dbs...)

		if got.Totals() != seq.Totals() {
			t.Fatalf("shards=%d: totals %+v, want %+v", shards, got.Totals(), seq.Totals())
		}
		if !reflect.DeepEqual(got.ByCountry(OrderByTested), seq.ByCountry(OrderByTested)) {
			t.Errorf("shards=%d: ByCountry differs", shards)
		}
		if !reflect.DeepEqual(got.ByHostCategory(), seq.ByHostCategory()) {
			t.Errorf("shards=%d: ByHostCategory differs", shards)
		}
		if !reflect.DeepEqual(got.IssuerOrgTop(0), seq.IssuerOrgTop(0)) {
			t.Errorf("shards=%d: IssuerOrgTop differs", shards)
		}
		if !reflect.DeepEqual(got.CategoryCounts(), seq.CategoryCounts()) {
			t.Errorf("shards=%d: CategoryCounts differs", shards)
		}
		if got.Negligence() != seq.Negligence() {
			t.Errorf("shards=%d: Negligence %+v, want %+v", shards, got.Negligence(), seq.Negligence())
		}
		if !reflect.DeepEqual(got.Products(), seq.Products()) {
			t.Errorf("shards=%d: Products differs", shards)
		}
		if got.ProxiedCountryCount() != seq.ProxiedCountryCount() {
			t.Errorf("shards=%d: ProxiedCountryCount differs", shards)
		}
		if len(got.ProxiedRecords()) != len(seq.ProxiedRecords()) {
			t.Errorf("shards=%d: retained %d records, want %d",
				shards, len(got.ProxiedRecords()), len(seq.ProxiedRecords()))
		}
		if !bytes.Equal(got.AppendSnapshot(nil), image) {
			t.Errorf("shards=%d: the merged store's image differs from the sequential store's", shards)
		}
	}
}

// TestMergeDeterministicOrder: merging the same shards in any order gives
// byte-identical exports (the canonical record sort absorbs shard order).
func TestMergeDeterministicOrder(t *testing.T) {
	ms := mergeFixture(5000)
	mkShards := func(perm []int) []*DB {
		dbs := make([]*DB, 4)
		for i := range dbs {
			dbs[i] = New(0)
		}
		for i, m := range ms {
			dbs[i%4].Ingest(m)
		}
		out := make([]*DB, 4)
		for i, p := range perm {
			out[i] = dbs[p]
		}
		return out
	}
	export := func(dbs []*DB) string {
		var buf bytes.Buffer
		if err := Merge(0, dbs...).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := export(mkShards([]int{0, 1, 2, 3}))
	b := export(mkShards([]int{3, 1, 0, 2}))
	if a != b {
		t.Fatal("merge result depends on shard order")
	}
}

func TestMergeRetainLimit(t *testing.T) {
	ms := mergeFixture(5000)
	dbs := []*DB{New(0), New(0)}
	proxied, withProduct := 0, 0
	for i, m := range ms {
		dbs[i%2].Ingest(m)
		if m.Obs.Proxied {
			proxied++
			if m.Obs.ProductName != "" {
				withProduct++
			}
		}
	}
	const limit = 10
	got := Merge(limit, dbs...)
	if n := len(got.ProxiedRecords()); n != limit {
		t.Fatalf("retained %d records, want %d", n, limit)
	}
	// The cap applies to ProxiedRecords only; the totals and every query
	// over the proxied records still count every proxied row.
	if got.Totals().Proxied != proxied {
		t.Fatalf("merged proxied total %d, want %d", got.Totals().Proxied, proxied)
	}
	assertCountsEveryProxied(t, got, proxied, withProduct)
	// Merging nothing still yields a usable empty DB.
	empty := Merge(0)
	if empty.Totals() != (Agg{}) {
		t.Fatalf("empty merge has totals %+v", empty.Totals())
	}
}
