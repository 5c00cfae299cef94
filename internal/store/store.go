// Package store is the measurement database behind the reporting server
// ("We use OpenSSL to decode the certificates and store them in a database,
// where we can run queries", §5.1).
//
// It ingests core.Measurement records at study scale (12.3M in the second
// study) by maintaining running aggregates for every table in the
// evaluation, while retaining full records only for proxied connections —
// the same asymmetry the paper's analysis needed (totals per country/host
// type; full substitute-certificate detail only for the 0.41%).
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

	totals Agg

	byCountry  map[string]Agg
	byHostCat  map[hostdb.Category]Agg
	byCampaign map[string]Agg

	issuerOrgs *stats.Counter
	categories map[classify.Category]int

	negligence NegligenceStats

	productConns     map[string]int
	productIPs       map[string]map[uint32]struct{}
	productCountries map[string]map[string]struct{}

	proxiedIPs       map[uint32]struct{}
	proxiedCountries map[string]struct{}

	retainLimit int
	proxied     []core.Measurement

	// cellIdx and cells are AddBatch's scratch: its clean rows grouped
	// by (tuple, country).
	cellIdx map[uint64]int
	cells   []batchCell
}

// NullIssuerKey is the Counter key used for blank Issuer Organizations,
// matching Table 4's "Null" row.
const NullIssuerKey = "Null"

// New creates an empty store. retainLimit caps retained proxied records
// (<= 0 means unlimited; the studies produce at most ~51k).
func New(retainLimit int) *DB {
	return &DB{
		byCountry:        make(map[string]Agg),
		byHostCat:        make(map[hostdb.Category]Agg),
		byCampaign:       make(map[string]Agg),
		issuerOrgs:       stats.NewCounter(),
		categories:       make(map[classify.Category]int),
		productConns:     make(map[string]int),
		productIPs:       make(map[string]map[uint32]struct{}),
		productCountries: make(map[string]map[string]struct{}),
		proxiedIPs:       make(map[uint32]struct{}),
		proxiedCountries: make(map[string]struct{}),
		retainLimit:      retainLimit,
	}
}

// Ingest records one measurement; it implements core.Sink.
func (db *DB) Ingest(m core.Measurement) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ingestLocked(m)
}

// AddClean records n clean (unproxied) tests of one (campaign, country,
// host type) cell at once: the store ends up exactly as after n Ingest
// calls of such a measurement. A study generator tallies its clean tests
// and hands them over here, since a clean test touches nothing but the
// four aggregates.
func (db *DB) AddClean(campaign, country string, cat hostdb.Category, n int) {
	if n <= 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.addLocked(campaign, country, cat, n, 0)
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
		db.addLocked(t.Campaign, b.Countries[uint32(c.key)], t.HostCategory, c.n, 0)
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

// addLocked adds (tested, proxied) to the totals and the per-country,
// per-host-type and per-campaign aggregates. It returns the country key,
// with an unresolved ("") country filed under "??".
func (db *DB) addLocked(campaign, country string, cat hostdb.Category, tested, proxied int) string {
	if country == "" {
		country = "??"
	}
	// The aggregate maps hold Agg by value: one update costs a second
	// hash probe for the write-back, but a fresh store populates its key
	// space without an *Agg heap object per distinct key — at ingest
	// scale the per-key allocations dominated store construction.
	db.totals = db.totals.plus(tested, proxied)
	db.byCountry[country] = db.byCountry[country].plus(tested, proxied)
	db.byHostCat[cat] = db.byHostCat[cat].plus(tested, proxied)
	if campaign != "" {
		db.byCampaign[campaign] = db.byCampaign[campaign].plus(tested, proxied)
	}
	return country
}

func (a Agg) plus(tested, proxied int) Agg {
	return Agg{Tested: a.Tested + tested, Proxied: a.Proxied + proxied}
}

func (db *DB) ingestLocked(m core.Measurement) {
	proxied := 0
	if m.Obs.Proxied {
		proxied = 1
	}
	country := db.addLocked(m.Campaign, m.Country, m.HostCategory, 1, proxied)
	if proxied == 0 {
		return
	}

	org := m.Obs.IssuerOrg
	if org == "" {
		if m.Obs.IssuerCN != "" {
			org = m.Obs.IssuerCN
		} else {
			org = NullIssuerKey
		}
	}
	db.issuerOrgs.Add(org)
	db.categories[m.Obs.Category]++

	n := &db.negligence
	n.Proxied++
	switch m.Obs.KeyBits {
	case 512:
		n.Key512++
	case 1024:
		n.Key1024++
	case 2432:
		n.Key2432++
	}
	if m.Obs.MD5Signed {
		n.MD5Signed++
		if m.Obs.KeyBits == 512 {
			n.MD5And512++
		}
	} else if !m.Obs.WeakKey {
		n.FullStrength++
	}
	if m.Obs.IssuerCopied {
		n.IssuerCopied++
	}
	if m.Obs.SubjectDrift {
		n.SubjectDrift++
	}
	if m.Obs.NullIssuer {
		n.NullIssuer++
	}

	product := m.Obs.ProductName
	if product != "" {
		db.productConns[product]++
		ips := db.productIPs[product]
		if ips == nil {
			ips = make(map[uint32]struct{})
			db.productIPs[product] = ips
		}
		ips[m.ClientIP] = struct{}{}
		cs := db.productCountries[product]
		if cs == nil {
			cs = make(map[string]struct{})
			db.productCountries[product] = cs
		}
		cs[country] = struct{}{}
	}
	db.proxiedIPs[m.ClientIP] = struct{}{}
	db.proxiedCountries[country] = struct{}{}

	if db.retainLimit <= 0 || len(db.proxied) < db.retainLimit {
		db.proxied = append(db.proxied, m)
	}
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
// among proxied connections (Table 4); n <= 0 returns all.
func (db *DB) IssuerOrgTop(n int) []stats.Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.issuerOrgs.Top(n)
}

// CategoryCounts returns proxied-connection counts per claimed-issuer
// category (Tables 5/6).
func (db *DB) CategoryCounts() map[classify.Category]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[classify.Category]int, len(db.categories))
	for k, v := range db.categories {
		out[k] = v
	}
	return out
}

// Negligence returns the §5.2 counters.
func (db *DB) Negligence() NegligenceStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.negligence
}

// Products summarizes claimed products, sorted by connection count
// descending (supports the §6.4 kowsar-vs-DSP IP-diversity analysis).
func (db *DB) Products() []ProductAgg {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]ProductAgg, 0, len(db.productConns))
	for name, conns := range db.productConns {
		out = append(out, ProductAgg{
			Name:        name,
			Connections: conns,
			DistinctIPs: len(db.productIPs[name]),
			Countries:   len(db.productCountries[name]),
		})
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
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.proxiedCountries)
}

// ProxiedCountryList returns the countries with at least one proxied
// connection (unordered copy). Shard consumers union these for a cheap
// cross-shard summary without merging retained records.
func (db *DB) ProxiedCountryList() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.proxiedCountries))
	for c := range db.proxiedCountries {
		out = append(out, c)
	}
	return out
}

// ProxiedRecords returns the retained proxied measurements.
func (db *DB) ProxiedRecords() []core.Measurement {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]core.Measurement(nil), db.proxied...)
}

// WriteCSV exports retained proxied records as CSV.
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

// WriteJSONL exports retained proxied records as JSON Lines.
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
