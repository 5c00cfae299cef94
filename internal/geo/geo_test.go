package geo

import (
	"testing"
	"testing/quick"

	"tlsfof/internal/stats"
)

func TestUniverseWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Countries {
		if len(c.Code) != 2 {
			t.Errorf("bad code %q", c.Code)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %q", c.Code)
		}
		seen[c.Code] = true
		if c.Name == "" {
			t.Errorf("country %q has no name", c.Code)
		}
		if c.Blocks < 1 {
			t.Errorf("country %q has %d blocks", c.Code, c.Blocks)
		}
	}
	// The paper's Figure 7 covers 228 countries/territories; our universe
	// must be large enough for tables with "Other (200+)" rows.
	if len(Countries) < 150 {
		t.Fatalf("universe has only %d countries", len(Countries))
	}
}

func TestPaperCountriesPresent(t *testing.T) {
	db := NewDB()
	// Every country named in Table 3, Table 7, or the targeting list.
	needed := []string{
		"US", "BR", "FR", "GB", "RO", "DE", "CA", "TR", "IN", "ES",
		"RU", "IT", "KR", "PT", "PL", "UA", "BE", "JP", "NL", "TW",
		"CN", "EG", "PK", "ID", "GR", "CZ",
	}
	for _, code := range needed {
		if _, ok := db.Country(code); !ok {
			t.Errorf("country %s missing from registry", code)
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	db := NewDB()
	r := stats.NewRNG(1)
	for _, code := range []string{"US", "CN", "UA", "EG", "PK", "RU", "LI"} {
		idx, ok := db.Index(code)
		if !ok {
			t.Fatalf("no index for %s", code)
		}
		for i := 0; i < 50; i++ {
			ip := db.RandomIPUint32(r, idx)
			got, ok := db.LookupUint32(ip)
			if !ok {
				t.Fatalf("IP %s from %s not found", FormatIP(ip), code)
			}
			if got.Code != code {
				t.Fatalf("IP %s allocated to %s but resolves to %s", FormatIP(ip), code, got.Code)
			}
		}
	}
}

func TestLookupMissAndMalformed(t *testing.T) {
	db := NewDB()
	for _, c := range []struct {
		addr uint32
		what string
	}{
		{0x0a010203, "private 10/8 address"},
		{0x7f000001, "loopback"},
		{0xc0a80101, "RFC1918 192.168"},
		{0x00010203, "0/8"},
		{0xef010203, "multicast"},
	} {
		if _, ok := db.LookupUint32(c.addr); ok {
			t.Errorf("%s %s resolved", c.what, FormatIP(c.addr))
		}
	}
}

func TestNoOverlappingAllocations(t *testing.T) {
	db := NewDB()
	for i := 1; i < len(db.ranges); i++ {
		prev, cur := db.ranges[i-1], db.ranges[i]
		if cur.lo <= prev.hi {
			t.Fatalf("ranges overlap: [%x,%x] and [%x,%x]", prev.lo, prev.hi, cur.lo, cur.hi)
		}
	}
}

func TestReservedSpaceNeverAllocated(t *testing.T) {
	db := NewDB()
	for _, r := range db.ranges {
		for addr := r.lo; addr <= r.hi && addr >= r.lo; addr += 1 << 12 {
			if isReserved(addr &^ 0xffff) {
				t.Fatalf("allocated range [%x,%x] overlaps reserved space", r.lo, r.hi)
			}
			if addr > r.hi-(1<<12) {
				break
			}
		}
	}
}

func TestBlockCountsHonored(t *testing.T) {
	db := NewDB()
	us, _ := db.Country("US")
	if got := len(db.blocksFor[db.byCode["US"]]); got != us.Blocks {
		t.Fatalf("US has %d blocks, want %d", got, us.Blocks)
	}
}

func TestRandomIPUnknownCountry(t *testing.T) {
	db := NewDB()
	if _, ok := db.Index("ZZ"); ok {
		t.Fatal("unknown country has an index")
	}
}

func TestRandomIPDiversity(t *testing.T) {
	// The paper observed 8,589 distinct proxied IPs in study 1; the
	// registry must produce diverse addresses, not a handful.
	db := NewDB()
	r := stats.NewRNG(7)
	us, _ := db.Index("US")
	seen := make(map[uint32]bool)
	for i := 0; i < 10000; i++ {
		seen[db.RandomIPUint32(r, us)] = true
	}
	if len(seen) < 9900 {
		t.Fatalf("only %d distinct addresses in 10000 draws", len(seen))
	}
}

func TestFormatIP(t *testing.T) {
	if got := FormatIP(0x01020304); got != "1.2.3.4" {
		t.Fatalf("FormatIP = %q", got)
	}
	if got := FormatIP(0xffffffff); got != "255.255.255.255" {
		t.Fatalf("FormatIP = %q", got)
	}
}

// Property: every allocated address resolves to exactly the country that
// owns its block.
func TestQuickLookupConsistent(t *testing.T) {
	db := NewDB()
	f := func(rangeIdx uint16, offset uint16) bool {
		r := db.ranges[int(rangeIdx)%len(db.ranges)]
		addr := r.lo + uint32(offset)
		if addr > r.hi {
			addr = r.hi
		}
		c, ok := db.LookupUint32(addr)
		return ok && c.Code == db.countries[r.country].Code
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Lookup never panics for arbitrary 32-bit addresses, and when
// it resolves, the address really is inside one of the country's blocks.
func TestQuickLookupTotal(t *testing.T) {
	db := NewDB()
	f := func(addr uint32) bool {
		c, ok := db.LookupUint32(addr)
		if !ok {
			return true
		}
		for _, idx := range db.blocksFor[db.byCode[c.Code]] {
			r := db.ranges[idx]
			if addr >= r.lo && addr <= r.hi {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	db := NewDB()
	r := stats.NewRNG(1)
	us, _ := db.Index("US")
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = db.RandomIPUint32(r, us)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.LookupUint32(addrs[i%len(addrs)])
	}
}
