// Package geo is the reproduction's stand-in for the MaxMind GeoLite
// database the paper used to geolocate client IPs (§4: "This IP address was
// then used to query the MaxMind GeoLite database").
//
// It implements a synthetic but self-consistent IPv4 registry: every
// country in the universe receives a deterministic set of /16 blocks, and
// lookup maps any allocated IP back to its country via binary search over
// sorted ranges — the same query interface and cost profile as a real
// GeoIP database, with none of the proprietary data.
package geo

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"

	"tlsfof/internal/stats"
)

// blockBits is the prefix length of each allocated block.
const blockBits = 16

// ipRange is one allocated block: [lo, hi] inclusive, owned by country
// index country.
type ipRange struct {
	lo, hi  uint32
	country int
}

// DB is the synthetic geolocation database. It is immutable after
// construction and safe for concurrent use.
type DB struct {
	countries []Country
	byCode    map[string]int
	ranges    []ipRange // sorted by lo
	// blocksFor[i] lists the range indexes owned by country i, for
	// RandomIP.
	blocksFor [][]int
}

// NewDB builds the registry over the package-level Countries universe.
func NewDB() *DB {
	return NewDBWith(Countries)
}

// NewDBWith builds a registry over a custom country universe; block
// allocation walks the public IPv4 space from 1.0.0.0 upward, skipping
// reserved prefixes.
func NewDBWith(universe []Country) *DB {
	db := &DB{
		countries: append([]Country(nil), universe...),
		byCode:    make(map[string]int, len(universe)),
		blocksFor: make([][]int, len(universe)),
	}
	next := uint32(1) << 24 // 1.0.0.0
	blockSize := uint32(1) << (32 - blockBits)
	for i, c := range db.countries {
		db.byCode[c.Code] = i
		n := c.Blocks
		if n < 1 {
			n = 1
		}
		for b := 0; b < n; b++ {
			for isReserved(next) {
				next += blockSize
			}
			db.blocksFor[i] = append(db.blocksFor[i], len(db.ranges))
			db.ranges = append(db.ranges, ipRange{lo: next, hi: next + blockSize - 1, country: i})
			next += blockSize
		}
	}
	sort.Slice(db.ranges, func(a, b int) bool { return db.ranges[a].lo < db.ranges[b].lo })
	// Rebuild blocksFor after the sort invalidated indexes.
	for i := range db.blocksFor {
		db.blocksFor[i] = db.blocksFor[i][:0]
	}
	for idx, r := range db.ranges {
		db.blocksFor[r.country] = append(db.blocksFor[r.country], idx)
	}
	return db
}

// isReserved reports whether the /16 block starting at addr overlaps
// IPv4 space that must not be handed to simulated clients.
func isReserved(addr uint32) bool {
	octet1 := addr >> 24
	switch {
	case octet1 == 0, octet1 == 10, octet1 == 127:
		return true
	case octet1 >= 224: // multicast + future
		return true
	case octet1 == 169 && (addr>>16)&0xff == 254: // link-local
		return true
	case octet1 == 172 && (addr>>16)&0xff >= 16 && (addr>>16)&0xff < 32:
		return true
	case octet1 == 192 && (addr>>16)&0xff == 168:
		return true
	case octet1 == 100 && (addr>>16)&0xff >= 64 && (addr>>16)&0xff < 128: // CGN
		return true
	}
	return false
}

// Len returns the number of countries in the registry.
func (db *DB) Len() int { return len(db.countries) }

// Countries returns the registry's country list (shared slice; do not
// mutate).
func (db *DB) Countries() []Country { return db.countries }

// Index returns the position of the country with the given ISO code in
// Countries().
func (db *DB) Index(code string) (int, bool) {
	i, ok := db.byCode[code]
	return i, ok
}

// Country returns the country with the given ISO code.
func (db *DB) Country(code string) (Country, bool) {
	i, ok := db.byCode[code]
	if !ok {
		return Country{}, false
	}
	return db.countries[i], true
}

// Lookup resolves an IPv4 address to its country, reporting ok=false for
// unallocated or non-IPv4 addresses. This mirrors GeoLite lookups, which
// the paper ran on every reported client IP.
func (db *DB) Lookup(ip net.IP) (Country, bool) {
	v4 := ip.To4()
	if v4 == nil {
		return Country{}, false
	}
	return db.LookupUint32(binary.BigEndian.Uint32(v4))
}

// LookupString resolves a dotted-quad string.
func (db *DB) LookupString(s string) (Country, bool) {
	ip := net.ParseIP(s)
	if ip == nil {
		return Country{}, false
	}
	return db.Lookup(ip)
}

// LookupUint32 resolves a big-endian IPv4 address value.
func (db *DB) LookupUint32(addr uint32) (Country, bool) {
	// Binary search for the first range with lo > addr, then check the
	// one before it.
	i := sort.Search(len(db.ranges), func(i int) bool { return db.ranges[i].lo > addr })
	if i == 0 {
		return Country{}, false
	}
	r := db.ranges[i-1]
	if addr > r.hi {
		return Country{}, false
	}
	return db.countries[r.country], true
}

// RandomIP draws a uniform IP from the country's allocation. It is how the
// client population assigns addresses to simulated clients, guaranteeing
// Lookup round-trips to the same country.
func (db *DB) RandomIP(r *stats.RNG, code string) (net.IP, error) {
	i, ok := db.byCode[code]
	if !ok {
		return nil, fmt.Errorf("geo: unknown country %q", code)
	}
	ip := make(net.IP, 4)
	binary.BigEndian.PutUint32(ip, db.RandomIPUint32(r, i))
	return ip, nil
}

// RandomIPUint32 is RandomIP for the country at position country in
// Countries(), without the net.IP allocation or the code lookup, for the
// fast-mode study loop. It draws exactly what RandomIP draws.
func (db *DB) RandomIPUint32(r *stats.RNG, country int) uint32 {
	blocks := db.blocksFor[country]
	blk := db.ranges[blocks[r.Intn(len(blocks))]]
	return blk.lo + uint32(r.Uint64n(uint64(blk.hi-blk.lo+1)))
}

// FormatIP renders a uint32 address as a dotted quad.
func FormatIP(addr uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", addr>>24, addr>>16&0xff, addr>>8&0xff, addr&0xff)
}
