package store

import (
	"bytes"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

// syntheticStream builds a deterministic, varied measurement stream:
// multiple countries, hosts, campaigns, products, issuer shapes, and the
// full set of §5.2 negligence behaviors.
func syntheticStream(n int, seed uint64) []core.Measurement {
	r := stats.NewRNG(seed)
	countries := []string{"US", "BR", "IN", "DE", "??", "JP"}
	hosts := []struct {
		name string
		cat  hostdb.Category
	}{
		{"www.facebook.com", hostdb.Popular},
		{"mybank.example", hostdb.Business},
		{"tlsresearch.byu.edu", hostdb.Popular},
	}
	campaigns := []string{"broad", "targeted-br", ""}
	products := []struct{ org, cn, product string }{
		{"Fortinet", "FortiGate CA", "FortiGate"},
		{"Sophos", "Sophos SSL", "Sophos UTM"},
		{"", "PSafe Tecnologia S.A.", "PSafe"},
		{"", "", ""}, // null issuer
	}
	epoch := time.Date(2014, time.January, 6, 0, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, 0, n)
	for i := 0; i < n; i++ {
		h := hosts[r.Intn(len(hosts))]
		m := core.Measurement{
			Time:         epoch.Add(time.Duration(i) * time.Minute),
			ClientIP:     uint32(r.Uint64()>>16) | 1,
			Country:      countries[r.Intn(len(countries))],
			Host:         h.name,
			HostCategory: h.cat,
			Campaign:     campaigns[r.Intn(len(campaigns))],
		}
		if r.Bool(0.3) {
			p := products[r.Intn(len(products))]
			bits := []int{512, 1024, 2048, 2432}[r.Intn(4)]
			m.Obs = core.Observation{
				Proxied:      true,
				IssuerOrg:    p.org,
				IssuerCN:     p.cn,
				ProductName:  p.product,
				KeyBits:      bits,
				WeakKey:      bits < 2048,
				UpgradedKey:  bits == 2432,
				MD5Signed:    r.Bool(0.2),
				IssuerCopied: r.Bool(0.1),
				SubjectDrift: r.Bool(0.1),
				NullIssuer:   p.org == "" && p.cn == "",
				SigAlg:       x509.SHA256WithRSA,
				ChainLen:     1 + r.Intn(3),
				Category:     classify.Category(r.Intn(5)),
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// renderStore summarizes every store-derived artifact into one string.
func renderStore(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", db.Totals())
	for _, row := range db.ByCountry(OrderByProxied) {
		fmt.Fprintf(&b, "%+v\n", row)
	}
	fmt.Fprintf(&b, "%v\n", db.ByHostCategory())
	fmt.Fprintf(&b, "%v\n", db.IssuerOrgTop(0))
	fmt.Fprintf(&b, "%v\n", db.CategoryCounts())
	fmt.Fprintf(&b, "%+v\n", db.Negligence())
	fmt.Fprintf(&b, "%+v\n", db.Products())
	fmt.Fprintf(&b, "%d\n", db.ProxiedCountryCount())
	// The canonical image covers what no accessor reads back: the
	// proxied records past the retain limit.
	fmt.Fprintf(&b, "%x\n", db.AppendSnapshot(nil))
	var csv strings.Builder
	if err := db.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	b.WriteString(csv.String())
	return b.String()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, retain := range []int{0, 7} {
		db := New(retain)
		for _, m := range syntheticStream(500, 7) {
			db.Ingest(m)
		}
		img := db.AppendSnapshot(nil)
		back, err := DecodeSnapshot(img)
		if err != nil {
			t.Fatalf("retain=%d: %v", retain, err)
		}
		if got, want := renderStore(t, back), renderStore(t, db); got != want {
			t.Fatalf("retain=%d: decoded snapshot renders differently\n got: %s\nwant: %s", retain, got, want)
		}
		// A decoded store must stay live: ingest after decode matches
		// ingest into the original.
		extra := syntheticStream(100, 8)
		for _, m := range extra {
			db.Ingest(m)
			back.Ingest(m)
		}
		if got, want := renderStore(t, back), renderStore(t, db); got != want {
			t.Fatalf("retain=%d: post-decode ingest diverged", retain)
		}
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	db := New(0)
	back, err := DecodeSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderStore(t, back), renderStore(t, db); got != want {
		t.Fatalf("empty store round trip differs")
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	db := New(0)
	for _, m := range syntheticStream(50, 9) {
		db.Ingest(m)
	}
	img := db.AppendSnapshot(nil)
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Fatal("empty image decoded")
	}
	for cut := 0; cut < len(img); cut += 7 {
		if _, err := DecodeSnapshot(img[:cut]); err == nil {
			t.Fatalf("truncated image (%d/%d bytes) decoded", cut, len(img))
		}
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xFF // version byte
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("bad version decoded")
	}
	if _, err := DecodeSnapshot(append(img, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestSnapshotRetainsManyBatches: more retained records than one batch
// frame holds decode back in order, field for field, and the image
// re-encodes to the same bytes.
func TestSnapshotRetainsManyBatches(t *testing.T) {
	base := syntheticStream(300, 10)
	db := New(0)
	var want []core.Measurement
	for i := 0; len(want) < core.MaxBatchRows+1000; i++ {
		m := base[i%len(base)]
		m.Time = m.Time.Add(time.Duration(i) * time.Second)
		m.ClientIP += uint32(i)
		if m.Obs.Proxied {
			want = append(want, m)
		}
		db.Ingest(m)
	}
	img := db.AppendSnapshot(nil)
	back, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	got := back.ProxiedRecords()
	if len(got) != len(want) {
		t.Fatalf("decoded %d retained records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) {
			t.Fatalf("record %d: time %v, want %v", i, g.Time, w.Time)
		}
		g.Time = w.Time
		if g != w {
			t.Fatalf("record %d: %+v, want %+v", i, g, w)
		}
	}
	if !bytes.Equal(back.AppendSnapshot(nil), img) {
		t.Fatal("decoded store re-encodes to different bytes")
	}
}

// TestSnapshotRefusesVersion1: an image of an older layout — version 1
// coded the retained records one by one, version 2 carried the proxied
// tables beside them, version 3 had aggregate sections of its own — is
// refused with an error naming both versions.
func TestSnapshotRefusesVersion1(t *testing.T) {
	for _, v := range []byte{1, 2, 3} {
		img := New(0).AppendSnapshot(nil)
		img[0] = v
		_, err := DecodeSnapshot(img)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) || !strings.Contains(err.Error(), "version 4") {
			t.Fatalf("decoding a version-%d image: %v, want an error naming versions %d and 4", v, err, v)
		}
	}
}

// hugeCountImages returns images whose one count is past the bytes
// left: the first or the second frame of an image says 2^31 bytes, with
// a few bytes behind it, or a frame that fits says its batch holds 2^31
// rows, under a CRC that matches.
func hugeCountImages() [][]byte {
	db := New(0)
	db.Ingest(syntheticStream(1, 9)[0])
	head := New(0).AppendSnapshot(nil)
	frame := db.AppendSnapshot(nil)[len(head):]
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	rows := slices.Clone(frame)
	batch := rows[4:]
	binary.LittleEndian.PutUint32(batch[25:], 1<<31)
	binary.LittleEndian.PutUint32(batch[5:], crc32.Checksum(batch[9:], crc32.MakeTable(crc32.Castagnoli)))
	return [][]byte{
		slices.Concat(head, huge, frame[4:]),
		slices.Concat(head, frame, huge, frame[4:]),
		slices.Concat(head, rows),
	}
}

// TestSnapshotRefusesHugeCounts: a frame length past the bytes left in
// the image, or a batch row count past the cap, is an error, decided
// before anything is sized by it.
func TestSnapshotRefusesHugeCounts(t *testing.T) {
	for i, img := range hugeCountImages() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(img)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("image %d: %v, want an error for the frame length", i, err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Fatalf("image %d: decoding %d bytes allocated %d", i, len(img), grown)
		}
	}
}

// TestSnapshotIsBatchFrames: the image is its header and then batch
// frames, which decode with core.Batch alone. The clean cells come first,
// one weighted row each in cell order, naming the host type and nothing
// else; the retained records follow in store order.
func TestSnapshotIsBatchFrames(t *testing.T) {
	db := New(0)
	ms := syntheticStream(200, 13)
	for _, m := range ms {
		db.Ingest(m)
	}
	img := db.AppendSnapshot(nil)
	if img[0] != 4 || img[1] != 0 {
		t.Fatalf("image header % x, want version 4 and retain limit 0", img[:2])
	}
	var b core.Batch
	if err := b.Decode(img[6:]); err != nil || int(binary.LittleEndian.Uint32(img[2:])) != len(img)-6 {
		t.Fatalf("the image is not one length-prefixed batch frame: %v", err)
	}
	clean := 0
	for _, r := range b.Rows {
		if b.Tuples[r.Tuple].Obs.Proxied {
			break
		}
		clean++
	}
	cells := map[cell]int{}
	for _, m := range ms {
		if !m.Obs.Proxied {
			cells[cell{countryKey(m.Country), m.HostCategory}]++
		}
	}
	if clean != len(cells) {
		t.Fatalf("%d clean rows, want one per clean cell: %d", clean, len(cells))
	}
	var prev cell
	for i, r := range b.Rows[:clean] {
		tu, k := b.Tuples[r.Tuple], cell{b.Countries[r.Country], b.Tuples[r.Tuple].HostCategory}
		if tu != (core.Tuple{HostCategory: k.cat}) || int(r.Count) != cells[k] || r.Time != 0 || r.ClientIP != 0 {
			t.Fatalf("clean row %d: %+v of tuple %+v, want count %d of host type %v alone", i, r, tu, cells[k], k.cat)
		}
		if i > 0 && (k.country < prev.country || k.country == prev.country && k.cat <= prev.cat) {
			t.Fatalf("clean row %d: cell %v after %v", i, k, prev)
		}
		prev = k
	}
	records := db.ProxiedRecords()
	if len(b.Rows)-clean != len(records) {
		t.Fatalf("%d proxied rows, want %d", len(b.Rows)-clean, len(records))
	}
	for i := range records {
		got, want := b.Measurement(clean+i), records[i]
		if !got.Time.Equal(want.Time) {
			t.Fatalf("record %d: time %v, want %v", i, got.Time, want.Time)
		}
		got.Time = want.Time
		if got != want {
			t.Fatalf("record %d: %+v, want %+v", i, got, want)
		}
	}
}

// FuzzDecodeSnapshot drives DecodeSnapshot over arbitrary bytes. It must
// never panic, and an image it accepts re-encodes to canonical bytes
// that decode to a store with the same image.
func FuzzDecodeSnapshot(f *testing.F) {
	db := New(0)
	for _, m := range syntheticStream(60, 11) {
		db.Ingest(m)
	}
	f.Add(db.AppendSnapshot(nil))
	f.Add(New(3).AppendSnapshot(nil))
	for _, img := range hugeCountImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		db, err := DecodeSnapshot(p)
		if err != nil {
			return
		}
		img := db.AppendSnapshot(nil)
		back, err := DecodeSnapshot(img)
		if err != nil {
			t.Fatalf("re-encoded image refused: %v", err)
		}
		if !bytes.Equal(back.AppendSnapshot(nil), img) {
			t.Fatal("re-encoded image does not round-trip")
		}
	})
}
