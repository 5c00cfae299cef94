package core

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/raceflag"
	"tlsfof/internal/stats"
)

// batchOf builds a batch from ms with Add.
func batchOf(id uint64, ms []Measurement) *Batch {
	b := new(Batch)
	b.Reset(id, 0)
	for i := range ms {
		b.Add(&ms[i])
	}
	return b
}

// batchStream builds a deterministic, varied measurement stream: three
// hosts, seven countries, three campaigns, and about a third of the rows
// proxied by one of four products.
func batchStream(n int, seed uint64) []Measurement {
	r := stats.NewRNG(seed)
	countries := []string{"US", "BR", "IN", "DE", "??", "JP", "RO"}
	hosts := []string{"www.facebook.com", "smallbiz.example", "tlsresearch.byu.edu"}
	campaigns := []string{"broad", "targeted-br", "third"}
	products := []struct{ org, cn, product string }{
		{"Fortinet", "FortiGate CA", "FortiGate"},
		{"Sophos", "Sophos SSL", "Sophos UTM"},
		{"", "PSafe Tecnologia S.A.", "PSafe"},
		{"", "", ""},
	}
	epoch := time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
	ms := make([]Measurement, n)
	for i := range ms {
		h := r.Intn(len(hosts))
		m := &ms[i]
		*m = Measurement{
			Time:         epoch.Add(time.Duration(i) * time.Minute),
			ClientIP:     uint32(r.Uint64()>>16) | 1,
			Country:      countries[r.Intn(len(countries))],
			Host:         hosts[h],
			HostCategory: hostdb.Category(h % 2),
			Campaign:     campaigns[r.Intn(len(campaigns))],
		}
		if r.Bool(0.35) {
			p := products[r.Intn(len(products))]
			bits := []int{512, 1024, 2048, 2432}[r.Intn(4)]
			m.Obs = Observation{
				Proxied: true, IssuerOrg: p.org, IssuerCN: p.cn, ProductName: p.product,
				KeyBits: bits, WeakKey: bits < 2048, MD5Signed: r.Bool(0.2),
				SigAlg: x509.SHA256WithRSA, ChainLen: 1 + r.Intn(3), Category: classify.Category(r.Intn(5)),
			}
		}
	}
	return ms
}

// batchTestMeasurements is batchStream plus the corners: an
// all-empty measurement and a proxied one with every string set.
func batchTestMeasurements() []Measurement {
	ms := batchStream(300, 51)
	ms = append(ms, Measurement{Time: ms[0].Time}, Measurement{
		Time: ms[1].Time, ClientIP: 7, Country: "ZZ", Host: "all.example", Campaign: "c",
		Obs: Observation{Proxied: true, IssuerOrg: "O", IssuerCN: "CN", IssuerOU: "OU", ProductName: "P", KeyBits: 1024, WeakKey: true},
	})
	return ms
}

// TestBatchRoundTrip: every row of a decoded batch expands to the
// measurement that was added, and re-encoding the decode gives the same
// bytes.
func TestBatchRoundTrip(t *testing.T) {
	ms := batchTestMeasurements()
	ms[5].Trace = 99
	enc := batchOf(42, ms).AppendTo(nil)
	var b Batch
	if err := b.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if b.ID != 42 || b.Trace != 99 || len(b.Rows) != len(ms) {
		t.Fatalf("decoded id %d trace %d rows %d", b.ID, b.Trace, len(b.Rows))
	}
	for i, want := range ms {
		got := b.Measurement(i)
		if !got.Time.Equal(want.Time) {
			t.Fatalf("row %d: time %v, want %v", i, got.Time, want.Time)
		}
		got.Time, want.Time, want.Trace = time.Time{}, time.Time{}, 0
		if got != want {
			t.Fatalf("row %d: %+v, want %+v", i, got, want)
		}
	}
	if re := b.AppendTo(nil); !bytes.Equal(re, enc) {
		t.Fatal("re-encoded batch differs from the original bytes")
	}
}

// weightedBatch is batchOf(id, ms) with every clean row standing for
// 1 + i%5 measurements, and one for 70,000: a version-2 batch.
func weightedBatch(id uint64, ms []Measurement) *Batch {
	b := new(Batch)
	b.Reset(id, 0)
	for i := range ms {
		n := uint32(1 + i%5)
		if i == 3 {
			n = 70000
		}
		if ms[i].Obs.Proxied {
			n = 1
		}
		b.AddN(&ms[i], n)
	}
	return b
}

// TestWeightedBatchRoundTrip: a batch with a count other than 1 encodes
// as version 2 and decodes to the same rows, counts and all, and the same
// bytes again; the all-ones batch of the same measurements stays version
// 1, with rows four bytes shorter.
func TestWeightedBatchRoundTrip(t *testing.T) {
	ms := batchTestMeasurements()
	enc := weightedBatch(42, ms).AppendTo(nil)
	ones := batchOf(42, ms).AppendTo(nil)
	if enc[4] != 2 || ones[4] != 1 || len(enc)-len(ones) != 4*len(ms) {
		t.Fatalf("versions %d and %d, %d and %d bytes for %d rows", enc[4], ones[4], len(enc), len(ones), len(ms))
	}
	for _, check := range []bool{false, true} {
		var b Batch
		err := b.Decode(enc)
		if check {
			err = b.Check(enc)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b.Rows, weightedBatch(42, ms).Rows) {
			t.Fatalf("check=%v: decoded rows differ from the built ones", check)
		}
		if check {
			continue
		}
		for i, want := range ms {
			got := b.Measurement(i)
			got.Time, want.Time = time.Time{}, time.Time{}
			if got != want {
				t.Fatalf("row %d: %+v, want %+v", i, got, want)
			}
		}
		if re := b.AppendTo(nil); !bytes.Equal(re, enc) {
			t.Fatal("re-encoded weighted batch differs from the original bytes")
		}
	}
	var b Batch
	if err := b.Decode(ones); err != nil || slices.ContainsFunc(b.Rows, func(r Row) bool { return r.Count != 1 }) {
		t.Fatalf("a version-1 batch decodes to counts other than 1 (%v)", err)
	}
}

// TestBatchRefusesBadCounts: a zero count, or a proxied row standing for
// more than one measurement, is refused by Decode and by Check.
func TestBatchRefusesBadCounts(t *testing.T) {
	clean := Measurement{Country: "US", Host: "a.example"}
	proxied := Measurement{Country: "US", Host: "a.example", Obs: Observation{Proxied: true, IssuerOrg: "Fortinet"}}
	for _, tc := range []struct {
		name string
		m    Measurement
		n    uint32
	}{{"zero count", clean, 0}, {"proxied count 2", proxied, 2}} {
		b := weightedBatch(1, batchStream(20, 56))
		b.AddN(&tc.m, tc.n)
		enc := b.AppendTo(nil)
		var d Batch
		for _, err := range []error{d.Decode(enc), d.Check(enc)} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("count %d", tc.n)) {
				t.Fatalf("%s: %v, want an error naming the count", tc.name, err)
			}
		}
	}
}

// TestBatchTablesHoldEachEntryOnce: Add puts each distinct tuple and
// country in the tables once while no (host, campaign, host type) key
// has more than maxTupleChain observations, and past that bound only
// adds tuples, never loses a row.
func TestBatchTablesHoldEachEntryOnce(t *testing.T) {
	for _, tc := range []struct {
		n    int
		once bool
	}{{60, true}, {2000, false}} {
		ms := batchStream(tc.n, 54)
		obs := map[tupleKey]map[Observation]bool{}
		for _, m := range ms {
			k := tupleKey{m.Host, m.Campaign, m.HostCategory}
			if obs[k] == nil {
				obs[k] = map[Observation]bool{}
			}
			obs[k][m.Obs] = true
		}
		widest := 0
		for _, o := range obs {
			widest = max(widest, len(o))
		}
		if once := widest <= maxTupleChain; once != tc.once {
			t.Fatalf("%d measurements: widest key has %d observations; fixture no longer exercises once=%v", tc.n, widest, tc.once)
		}
		b := batchOf(1, ms)
		tuples, countries := map[Tuple]bool{}, map[string]bool{}
		for _, tu := range b.Tuples {
			tuples[tu] = true
		}
		for _, c := range b.Countries {
			countries[c] = true
		}
		if len(countries) != len(b.Countries) || tc.once && len(tuples) != len(b.Tuples) {
			t.Fatalf("%d measurements: %d tuples (%d distinct), %d countries (%d distinct)", tc.n, len(b.Tuples), len(tuples), len(b.Countries), len(countries))
		}
		for i := range ms {
			if got := b.Measurement(i); got.Obs != ms[i].Obs || got.Host != ms[i].Host || got.Country != ms[i].Country {
				t.Fatalf("%d measurements: row %d expands to %+v, want %+v", tc.n, i, got, ms[i])
			}
		}
	}
}

// TestBatchDecodeRefusesDamage: a batch cut anywhere, with a byte flipped
// anywhere, or with a byte appended decodes to an error, never a batch.
func TestBatchDecodeRefusesDamage(t *testing.T) {
	enc := batchOf(1, batchStream(20, 52)).AppendTo(nil)
	var b Batch
	for cut := 0; cut < len(enc); cut++ {
		if err := b.Decode(enc[:cut]); err == nil {
			t.Fatalf("cut at %d/%d decoded", cut, len(enc))
		}
	}
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x10
		if err := b.Decode(bad); err == nil {
			t.Fatalf("flipped byte %d decoded", i)
		}
	}
	if err := b.Decode(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	for _, tc := range []struct{ name, want string }{{"TFMA", "magic"}, {"TFMB\x03", "version 3"}} {
		bad := append([]byte(tc.name), enc[len(tc.name):]...)
		if err := b.Decode(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%q: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchSplitIsAddPerPart: splitting a batch by shard gives each shard
// exactly the batch AddN builds from that shard's rows, counts and all.
func TestBatchSplitIsAddPerPart(t *testing.T) {
	ms := batchTestMeasurements()
	const n = 3
	shardOf := func(host string) int { return len(host) % n }
	for _, b := range []*Batch{batchOf(7, ms), weightedBatch(7, ms)} {
		part := make([]int, len(b.Tuples))
		for i, tu := range b.Tuples {
			part[i] = shardOf(tu.Host)
		}
		parts := make([]Batch, n)
		b.Split(part, parts)
		for si := range parts {
			var want Batch
			want.Reset(7, 0)
			for i := range ms {
				if shardOf(ms[i].Host) == si {
					want.AddN(&ms[i], b.Rows[i].Count)
				}
			}
			if got := parts[si].AppendTo(nil); !bytes.Equal(got, want.AppendTo(nil)) {
				t.Fatalf("version %d, part %d (%d rows) differs from the batch of its %d measurements",
					got[4], si, len(parts[si].Rows), len(want.Rows))
			}
		}
	}
}

// TestAddFromFollowsItsSource: AddFrom remembers where a source's tuples
// went only while the source keeps its tables. A source replaced by a
// zero Batch at the same address, or Reset, and filled with another
// tuple is looked up afresh, as the handler's pooled batch and a
// request's short-lived one are.
func TestAddFromFollowsItsSource(t *testing.T) {
	hosts := []string{"a.example", "b.example", "c.example"}
	var src, dst Batch
	for i, host := range hosts {
		switch i {
		case 1:
			src = Batch{}
		case 2:
			src.Reset(0, 0)
		}
		src.Add(&Measurement{Host: host, Country: "US", Time: time.Unix(int64(i), 0)})
		dst.AddFrom(&src, src.Rows[0])
	}
	for i, host := range hosts {
		if got := dst.Measurement(i).Host; got != host {
			t.Fatalf("row %d copied as %s, want %s", i, got, host)
		}
	}
}

// TestBatchDecodeAllocs: a warm batch decodes with one allocation, the
// copy of its string tables, however many rows it has and in either
// version; the check a replica runs before it appends a frame allocates
// nothing.
func TestBatchDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := batchStream(64, 53)
	for _, rows := range []int{64, 4096} {
		ms := make([]Measurement, rows)
		for i := range ms {
			ms[i] = base[i%len(base)]
		}
		for _, enc := range [][]byte{batchOf(1, ms).AppendTo(nil), weightedBatch(1, ms).AppendTo(nil)} {
			var b Batch
			if allocs := testing.AllocsPerRun(20, func() {
				if err := b.Decode(enc); err != nil {
					t.Fatal(err)
				}
			}); allocs != 1 {
				t.Errorf("%d rows, version %d: Decode allocates %v, want 1", rows, enc[4], allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if err := b.Check(enc); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%d rows, version %d: the check allocates %v, want 0", rows, enc[4], allocs)
			}
		}
	}
}

// TestBatchFrameBytesPinned: the frame of a fixed Add-built batch —
// three hosts, four countries, two campaigns, proxied rows, a dedup ID
// and a trace ID — hashes to the value recorded when the batch lived in
// internal/durable, so WAL segments and tail streams stay byte-identical
// across the move.
func TestBatchFrameBytesPinned(t *testing.T) {
	const want = "91af657bbdc880ba8fe8dfba2e7281efd8d9f940121dfbb7d5fd225970e72b69"
	epoch := time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
	hosts := []struct {
		name string
		cat  hostdb.Category
	}{{"www.facebook.com", hostdb.Popular}, {"smallbiz.example", hostdb.Business}, {"tlsresearch.byu.edu", hostdb.Popular}}
	countries := []string{"US", "BR", "??", "IN"}
	clean := Observation{IssuerOrg: "DigiCert Inc", IssuerCN: "DigiCert SHA2 High Assurance Server CA", KeyBits: 2048, SigAlg: x509.SHA256WithRSA, ChainLen: 3}
	proxied := Observation{
		Proxied: true, IssuerOrg: "Fortinet", IssuerCN: "FortiGate CA", IssuerOU: "Certificate Authority",
		KeyBits: 1024, OriginalKeyBits: 2048, SigAlg: x509.SHA1WithRSA, WeakKey: true, SubjectDrift: true,
		ChainLen: 2, Category: classify.Category(2), ProductName: "FortiGate",
	}
	var b Batch
	b.Reset(0x0123456789abcdef, 0)
	for i := 0; i < 24; i++ {
		h := hosts[i%len(hosts)]
		m := Measurement{
			Time: epoch.Add(time.Duration(i) * 1500 * time.Millisecond), ClientIP: 0x0a000001 + uint32(i*7919),
			Country: countries[i/2%len(countries)], Host: h.name, HostCategory: h.cat,
			Campaign: []string{"broad", "targeted-br"}[i/6%2], Obs: clean,
		}
		if i%7 == 3 {
			m.Obs, m.Trace = proxied, 0xfeedface00000000+uint64(i)
		}
		b.Add(&m)
	}
	if len(b.Tuples) != 9 || len(b.Countries) != 4 || b.Trace != 0xfeedface00000003 {
		t.Fatalf("fixture drifted: %d tuples, %d countries, trace %#x", len(b.Tuples), len(b.Countries), b.Trace)
	}
	sum := sha256.Sum256(b.AppendTo(nil))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("batch frame hashes to %s, want %s", got, want)
	}
}
