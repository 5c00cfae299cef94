// Package store is the measurement database behind the reporting server
// ("We use OpenSSL to decode the certificates and store them in a database,
// where we can run queries", §5.1).
//
// It ingests measurements at study scale (12.3M in the second study) by
// keeping one table of running (tested, proxied) counts per (country,
// host type) cell, and the full record of every proxied connection — the
// same asymmetry the paper's analysis needed (counts per country and host
// type; full substitute-certificate detail only for the 0.41%). The
// totals, Tables 3, 7 and 8 and the proxied-country count are sums over
// the cell table; Tables 4–6, §5.2's negligence counts and §6.4's product
// diversity are queries over the records. Each is answered when asked,
// so every fact is held once. A study hands its store each clean
// (country, host) tally as one weighted batch row.
package store

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

// Agg is a (tested, proxied) pair.
type Agg struct {
	Tested  int
	Proxied int
}

// Rate returns proxied/tested (0 when empty).
func (a Agg) Rate() float64 {
	if a.Tested == 0 {
		return 0
	}
	return float64(a.Proxied) / float64(a.Tested)
}

// NegligenceStats tallies §5.2's negligent/suspicious behaviors across
// proxied connections.
type NegligenceStats struct {
	Proxied int // denominator

	Key512  int // substitute keys of 512 bits
	Key1024 int // substitute keys of 1024 bits
	Key2432 int // substitute keys of 2432 bits (upgrades)

	MD5Signed int // substitute certs signed with MD5
	MD5And512 int // both conditions at once (21 in study 1)
	// FullStrength counts substitutes at least as strong as the
	// original (>= 2048-bit key, modern signature) — the minority the
	// paper notes had "better cryptographic strength than our
	// certificate".
	FullStrength int

	IssuerCopied int // claims the authoritative issuer (false DigiCert)
	SubjectDrift int // subject does not match probed host
	NullIssuer   int // blank issuer fields
}

// ProductAgg summarizes one claimed product across proxied connections.
type ProductAgg struct {
	Name        string
	Connections int
	DistinctIPs int
	Countries   int
}

// DB is the measurement store. All methods are safe for concurrent use.
type DB struct {
	mu sync.Mutex

	cells map[cell]Agg // every test, counted in its cell

	// retainLimit caps what ProxiedRecords and the exports return; the
	// store keeps every proxied record, so no query sees a truncated set.
	retainLimit int
	proxied     []core.Measurement

	// groupIdx and groups are AddBatch's scratch: its clean rows of
	// count 1 grouped by (tuple, country).
	groupIdx map[uint64]int
	groups   []batchGroup
}

// cell is a (countryKey, host type) key of the cell table.
type cell struct {
	country string
	cat     hostdb.Category
}

// NullIssuerKey is the IssuerOrgTop key of blank Issuer Organizations,
// matching Table 4's "Null" row.
const NullIssuerKey = "Null"

// New creates an empty store. retainLimit caps the proxied records
// ProxiedRecords, WriteCSV and WriteJSONL return (<= 0 means unlimited);
// every query still counts every proxied record.
func New(retainLimit int) *DB {
	return &DB{cells: make(map[cell]Agg), retainLimit: retainLimit}
}

// Ingest records one measurement; it implements core.Sink.
func (db *DB) Ingest(m core.Measurement) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ingestLocked(m)
}

// AddBatch records b's rows under one lock acquisition: the store ends
// up exactly as after Ingest of every row's measurement, Count times, in
// order. A weighted clean row is one cell add; rows of count 1 are
// grouped by (tuple, country) first, so a cell takes one add per group.
// A proxied row's count is 1 (core.Batch refuses any other), and its
// retained record is b.Record's, so one from a decoded batch has strings
// of its own.
func (db *DB) AddBatch(b *core.Batch) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.groupIdx == nil {
		db.groupIdx = make(map[uint64]int)
	}
	// Two passes, clean rows then proxied ones, so the grouping's map
	// is not evicted by ingestLocked's between rows.
	for _, r := range b.Rows {
		t := &b.Tuples[r.Tuple]
		switch {
		case t.Obs.Proxied:
			continue
		case r.Count != 1:
			db.addLocked(b.Countries[r.Country], t.HostCategory, int(r.Count), 0)
			continue
		}
		key := uint64(r.Tuple)<<32 | uint64(r.Country)
		g, ok := db.groupIdx[key]
		if !ok {
			g = len(db.groups)
			db.groupIdx[key] = g
			db.groups = append(db.groups, batchGroup{key: key})
		}
		db.groups[g].n++
	}
	for _, g := range db.groups {
		t := &b.Tuples[g.key>>32]
		db.addLocked(b.Countries[uint32(g.key)], t.HostCategory, g.n, 0)
	}
	clear(db.groupIdx)
	db.groups = db.groups[:0]
	for i, r := range b.Rows {
		if b.Tuples[r.Tuple].Obs.Proxied {
			db.ingestLocked(b.Record(i))
		}
	}
}

// batchGroup is n clean rows of one batch's (tuple, country) pair, key
// tuple<<32 | country.
type batchGroup struct {
	key uint64
	n   int
}

// countryKey files an unresolved ("") country under "??".
func countryKey(country string) string {
	if country == "" {
		return "??"
	}
	return country
}

// addLocked adds (tested, proxied) to the cell of (country, cat).
func (db *DB) addLocked(country string, cat hostdb.Category, tested, proxied int) {
	// The table holds Agg by value: one update costs a second hash probe
	// for the write-back, but a fresh store populates its key space
	// without an *Agg heap object per cell — at ingest scale the per-key
	// allocations dominated store construction.
	k := cell{countryKey(country), cat}
	db.cells[k] = db.cells[k].plus(tested, proxied)
}

func (a Agg) plus(tested, proxied int) Agg {
	return Agg{Tested: a.Tested + tested, Proxied: a.Proxied + proxied}
}

func (db *DB) ingestLocked(m core.Measurement) {
	if !m.Obs.Proxied {
		db.addLocked(m.Country, m.HostCategory, 1, 0)
		return
	}
	db.addLocked(m.Country, m.HostCategory, 1, 1)
	db.proxied = append(db.proxied, m)
}

// Totals returns the overall (tested, proxied) aggregate.
func (db *DB) Totals() Agg {
	db.mu.Lock()
	defer db.mu.Unlock()
	var t Agg
	for _, a := range db.cells {
		t = t.plus(a.Tested, a.Proxied)
	}
	return t
}

// countryAggsLocked sums the cell table per country.
func (db *DB) countryAggsLocked() map[string]Agg {
	out := make(map[string]Agg)
	for k, a := range db.cells {
		out[k.country] = out[k.country].plus(a.Tested, a.Proxied)
	}
	return out
}

// CountryRow is one row of Tables 3/7.
type CountryRow struct {
	Code string
	Agg
}

// ByCountry returns per-country aggregates, sorted by the given order.
func (db *DB) ByCountry(order CountryOrder) []CountryRow {
	db.mu.Lock()
	countries := db.countryAggsLocked()
	db.mu.Unlock()
	rows := make([]CountryRow, 0, len(countries))
	for code, a := range countries {
		rows = append(rows, CountryRow{Code: code, Agg: a})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		var ka, kb int
		switch order {
		case OrderByProxied:
			ka, kb = a.Proxied, b.Proxied
		default:
			ka, kb = a.Tested, b.Tested
		}
		if ka != kb {
			return ka > kb
		}
		return a.Code < b.Code
	})
	return rows
}

// CountryOrder selects row ordering for ByCountry.
type CountryOrder int

// Table 3 sorts by proxied count; Table 7 by total tested.
const (
	OrderByProxied CountryOrder = iota
	OrderByTested
)

// ByHostCategory returns per-host-type aggregates (Table 8).
func (db *DB) ByHostCategory() map[hostdb.Category]Agg {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[hostdb.Category]Agg)
	for k, a := range db.cells {
		out[k.cat] = out[k.cat].plus(a.Tested, a.Proxied)
	}
	return out
}

// IssuerOrgTop returns the n most frequent claimed Issuer Organizations
// among proxied connections (Table 4); n <= 0 returns all. A blank
// organization counts under the issuer CN, or under NullIssuerKey when
// that is blank too.
func (db *DB) IssuerOrgTop(n int) []stats.Entry {
	c := stats.NewCounter()
	db.mu.Lock()
	for i := range db.proxied {
		o := &db.proxied[i].Obs
		switch {
		case o.IssuerOrg != "":
			c.Add(o.IssuerOrg)
		case o.IssuerCN != "":
			c.Add(o.IssuerCN)
		default:
			c.Add(NullIssuerKey)
		}
	}
	db.mu.Unlock()
	return c.Top(n)
}

// CategoryCounts returns proxied-connection counts per claimed-issuer
// category (Tables 5/6).
func (db *DB) CategoryCounts() map[classify.Category]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[classify.Category]int)
	for i := range db.proxied {
		out[db.proxied[i].Obs.Category]++
	}
	return out
}

// Negligence returns the §5.2 counters.
func (db *DB) Negligence() NegligenceStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n NegligenceStats
	for i := range db.proxied {
		o := &db.proxied[i].Obs
		n.Proxied++
		switch o.KeyBits {
		case 512:
			n.Key512++
		case 1024:
			n.Key1024++
		case 2432:
			n.Key2432++
		}
		if o.MD5Signed {
			n.MD5Signed++
			if o.KeyBits == 512 {
				n.MD5And512++
			}
		} else if !o.WeakKey {
			n.FullStrength++
		}
		if o.IssuerCopied {
			n.IssuerCopied++
		}
		if o.SubjectDrift {
			n.SubjectDrift++
		}
		if o.NullIssuer {
			n.NullIssuer++
		}
	}
	return n
}

// Products summarizes claimed products, sorted by connection count
// descending (supports the §6.4 kowsar-vs-DSP IP-diversity analysis). A
// proxied record with no product name is not counted.
func (db *DB) Products() []ProductAgg {
	type product struct {
		conns     int
		ips       map[uint32]struct{}
		countries map[string]struct{}
	}
	byName := make(map[string]*product)
	db.mu.Lock()
	for i := range db.proxied {
		m := &db.proxied[i]
		name := m.Obs.ProductName
		if name == "" {
			continue
		}
		p := byName[name]
		if p == nil {
			p = &product{ips: make(map[uint32]struct{}), countries: make(map[string]struct{})}
			byName[name] = p
		}
		p.conns++
		p.ips[m.ClientIP] = struct{}{}
		p.countries[countryKey(m.Country)] = struct{}{}
	}
	db.mu.Unlock()
	out := make([]ProductAgg, 0, len(byName))
	for name, p := range byName {
		out = append(out, ProductAgg{Name: name, Connections: p.conns, DistinctIPs: len(p.ips), Countries: len(p.countries)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Connections != out[j].Connections {
			return out[i].Connections > out[j].Connections
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ProxiedCountryCount counts countries with at least one proxied
// connection (142 in study 1, 147 in study 2).
func (db *DB) ProxiedCountryCount() int {
	return len(db.ProxiedCountryList())
}

// ProxiedCountryList returns the countries with at least one proxied
// connection (unordered copy). Shard consumers union these for a cheap
// cross-shard summary without merging retained records.
func (db *DB) ProxiedCountryList() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for c, a := range db.countryAggsLocked() {
		if a.Proxied > 0 {
			out = append(out, c)
		}
	}
	return out
}

// ProxiedRecords returns the proxied measurements, at most the store's
// retain limit of them.
func (db *DB) ProxiedRecords() []core.Measurement {
	db.mu.Lock()
	defer db.mu.Unlock()
	records := db.proxied
	if db.retainLimit > 0 && len(records) > db.retainLimit {
		records = records[:db.retainLimit]
	}
	return append([]core.Measurement(nil), records...)
}

// WriteCSV exports ProxiedRecords as CSV.
func (db *DB) WriteCSV(w io.Writer) error {
	records := db.ProxiedRecords()
	cw := csv.NewWriter(w)
	header := []string{"time", "client_ip", "country", "host", "host_type",
		"campaign", "issuer_org", "issuer_cn", "category", "product",
		"key_bits", "sig_alg", "md5", "issuer_copied", "subject_drift"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, m := range records {
		row := []string{
			m.Time.UTC().Format("2006-01-02T15:04:05Z"),
			geo.FormatIP(m.ClientIP),
			m.Country,
			m.Host,
			m.HostCategory.String(),
			m.Campaign,
			m.Obs.IssuerOrg,
			m.Obs.IssuerCN,
			m.Obs.Category.String(),
			m.Obs.ProductName,
			strconv.Itoa(m.Obs.KeyBits),
			m.Obs.SigAlg.String(),
			strconv.FormatBool(m.Obs.MD5Signed),
			strconv.FormatBool(m.Obs.IssuerCopied),
			strconv.FormatBool(m.Obs.SubjectDrift),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL exports ProxiedRecords as JSON Lines.
func (db *DB) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range db.ProxiedRecords() {
		if err := enc.Encode(struct {
			Time     string `json:"time"`
			ClientIP string `json:"client_ip"`
			Country  string `json:"country"`
			Host     string `json:"host"`
			HostType string `json:"host_type"`
			Campaign string `json:"campaign,omitempty"`
			Issuer   string `json:"issuer_org"`
			IssuerCN string `json:"issuer_cn,omitempty"`
			Category string `json:"category"`
			Product  string `json:"product,omitempty"`
			KeyBits  int    `json:"key_bits"`
			MD5      bool   `json:"md5,omitempty"`
		}{
			Time:     m.Time.UTC().Format("2006-01-02T15:04:05Z"),
			ClientIP: geo.FormatIP(m.ClientIP),
			Country:  m.Country,
			Host:     m.Host,
			HostType: m.HostCategory.String(),
			Campaign: m.Campaign,
			Issuer:   m.Obs.IssuerOrg,
			IssuerCN: m.Obs.IssuerCN,
			Category: m.Obs.Category.String(),
			Product:  m.Obs.ProductName,
			KeyBits:  m.Obs.KeyBits,
			MD5:      m.Obs.MD5Signed,
		}); err != nil {
			return err
		}
	}
	return nil
}

// String renders a one-line summary.
func (db *DB) String() string {
	t := db.Totals()
	return fmt.Sprintf("store: %d tested, %d proxied (%.2f%%), %d countries",
		t.Tested, t.Proxied, 100*t.Rate(), db.ProxiedCountryCount())
}
