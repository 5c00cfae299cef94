// Package store is the measurement database behind the reporting server
// ("We use OpenSSL to decode the certificates and store them in a database,
// where we can run queries", §5.1).
//
// It ingests core.Measurement records at study scale (12.3M in the second
// study) by keeping running (tested, proxied) totals per country and host
// type, and the full record of every proxied connection — the same
// asymmetry the paper's analysis needed (totals per country/host type;
// full substitute-certificate detail only for the 0.41%). Tables 4–6,
// §5.2's negligence counts and §6.4's product diversity are queries over
// those records, answered when asked.
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

	totals    Agg
	byCountry map[string]Agg
	byHostCat map[hostdb.Category]Agg

	// retainLimit caps what ProxiedRecords and the exports return; the
	// store keeps every proxied record, so no query sees a truncated set.
	retainLimit int
	proxied     []core.Measurement

	// cellIdx and cells are AddBatch's scratch: its clean rows grouped
	// by (tuple, country).
	cellIdx map[uint64]int
	cells   []batchCell
}

// NullIssuerKey is the IssuerOrgTop key of blank Issuer Organizations,
// matching Table 4's "Null" row.
const NullIssuerKey = "Null"

// New creates an empty store. retainLimit caps the proxied records
// ProxiedRecords, WriteCSV and WriteJSONL return (<= 0 means unlimited);
// every query still counts every proxied record.
func New(retainLimit int) *DB {
	return &DB{
		byCountry:   make(map[string]Agg),
		byHostCat:   make(map[hostdb.Category]Agg),
		retainLimit: retainLimit,
	}
}

// Ingest records one measurement; it implements core.Sink.
func (db *DB) Ingest(m core.Measurement) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ingestLocked(m)
}

// AddClean records n clean (unproxied) tests of one (country, host type)
// cell at once: the store ends up exactly as after n Ingest calls of such
// a measurement, whatever its campaign (no aggregate is kept per
// campaign). A study generator tallies its clean tests and hands them
// over here, since a clean test touches nothing but the aggregates.
func (db *DB) AddClean(country string, cat hostdb.Category, n int) {
	if n <= 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.addLocked(country, cat, n, 0)
}

// AddBatch records b's rows under one lock acquisition: the store ends
// up exactly as after Ingest of every row's measurement, in order. Clean
// rows are added one (tuple, country) cell at a time, as AddClean adds
// them. A retained proxied record is b.Record's, so one from a decoded
// batch has strings of its own.
func (db *DB) AddBatch(b *core.Batch) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cellIdx == nil {
		db.cellIdx = make(map[uint64]int)
	}
	// Two passes, clean rows then proxied ones, so the grouping's map
	// is not evicted by ingestLocked's between rows.
	for _, r := range b.Rows {
		if b.Tuples[r.Tuple].Obs.Proxied {
			continue
		}
		key := uint64(r.Tuple)<<32 | uint64(r.Country)
		c, ok := db.cellIdx[key]
		if !ok {
			c = len(db.cells)
			db.cellIdx[key] = c
			db.cells = append(db.cells, batchCell{key: key})
		}
		db.cells[c].n++
	}
	for _, c := range db.cells {
		t := &b.Tuples[c.key>>32]
		db.addLocked(b.Countries[uint32(c.key)], t.HostCategory, c.n, 0)
	}
	clear(db.cellIdx)
	db.cells = db.cells[:0]
	for i, r := range b.Rows {
		if b.Tuples[r.Tuple].Obs.Proxied {
			db.ingestLocked(b.Record(i))
		}
	}
}

// batchCell is n clean rows of one batch's (tuple, country) pair, key
// tuple<<32 | country.
type batchCell struct {
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

// addLocked adds (tested, proxied) to the totals and the per-country and
// per-host-type aggregates.
func (db *DB) addLocked(country string, cat hostdb.Category, tested, proxied int) {
	// The aggregate maps hold Agg by value: one update costs a second
	// hash probe for the write-back, but a fresh store populates its key
	// space without an *Agg heap object per distinct key — at ingest
	// scale the per-key allocations dominated store construction.
	country = countryKey(country)
	db.totals = db.totals.plus(tested, proxied)
	db.byCountry[country] = db.byCountry[country].plus(tested, proxied)
	db.byHostCat[cat] = db.byHostCat[cat].plus(tested, proxied)
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
	return db.totals
}

// CountryRow is one row of Tables 3/7.
type CountryRow struct {
	Code string
	Agg
}

// ByCountry returns per-country aggregates, sorted by the given order.
func (db *DB) ByCountry(order CountryOrder) []CountryRow {
	db.mu.Lock()
	rows := make([]CountryRow, 0, len(db.byCountry))
	for code, a := range db.byCountry {
		rows = append(rows, CountryRow{Code: code, Agg: a})
	}
	db.mu.Unlock()
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
	out := make(map[hostdb.Category]Agg, len(db.byHostCat))
	for k, v := range db.byHostCat {
		out[k] = v
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
	for c, a := range db.byCountry {
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
