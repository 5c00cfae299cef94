package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"tlsfof/internal/hostdb"
)

// Batch frame (DESIGN.md §10, §12): the one layout a measurement batch
// has from router to replica. It is the /cluster/ingest request body, the
// payload of every WAL frame (internal/durable), so of every frame of a
// tail stream a follower appends verbatim, and the layout of every frame
// of a store image (internal/store).
//
//	batch     = magic "TFMB" | version (1 or 2) | crc32c uint32le
//	          | id uint64le | trace uint64le | rows uint32le | tuples
//	          | countries | row*
//	tuples    = count uvarint | tuple*
//	tuple     = host str | hostCategory uvarint | campaign str
//	          | observation (AppendObservation)
//	countries = count uvarint | str*
//	str       = len uvarint | bytes (at most MaxCodecStringLen)
//	row       = clientIP uint32le | time int64le (Unix ns)
//	          | tuple uint16le | country uint16le
//	          | count uint32le (version 2 only)
//
// A row's count is how many equal measurements it stands for: 1 for a
// report, a cell's size for a tally of clean tests. A batch whose counts
// are all 1 is version 1, without the column. A count is never 0, and a
// proxied row's is 1: the paper keeps every proxied test's detail (§5.1).
//
// The CRC (Castagnoli) covers every byte after it. The tables are
// positional and belong to their batch alone: a row names its tuple and
// its country by index, and nothing outside the batch is needed to
// decode it. A study batch has few distinct (host, campaign,
// observation) tuples and many countries, which is why country is a row
// column and not part of the tuple. The id is the sender's dedup ID (0 =
// none); trace is the telemetry trace ID of the first traced measurement
// added (0 = untraced) — rows carry no trace of their own.
const (
	batchMagic      = "TFMB"
	batchVersion    = 1
	weightedVersion = 2
	batchHdrLen     = 4 + 1 + 4 + 8 + 8 + 4
	batchRowLen     = 4 + 8 + 2 + 2
	weightedRowLen  = batchRowLen + 4
	// MaxBatchRows bounds the rows of one encoded batch, so a row's
	// uint16 table indexes reach every table entry.
	MaxBatchRows = 1 << 16
)

var batchCRC = crc32.MakeTable(crc32.Castagnoli)

// Tuple is one entry of a batch's tuple table: everything a row shares
// with other rows except its country.
type Tuple struct {
	Host         string
	HostCategory hostdb.Category
	Campaign     string
	Obs          Observation
}

// Row is one measurement of a batch, or Count equal ones: its own
// columns and the indexes of its tuple and country.
type Row struct {
	ClientIP       uint32
	Tuple, Country uint32
	Count          uint32
	Time           int64 // Unix nanoseconds
	// Trace is the measurement's telemetry trace ID. It lives in memory
	// only: a row encodes without it, so a decoded row has none.
	Trace uint64
}

// Fold is one traced measurement folded into a row of tuple Tuple.
type Fold struct {
	Tuple uint32
	Trace uint64
}

// Batch is one batch frame in memory: built row by row with Add, or
// decoded from bytes with Decode. Its slices are reused across Reset, so
// one Batch per goroutine reaches a steady state with no allocation per
// row. A Batch is not safe for concurrent use.
type Batch struct {
	ID, Trace uint64
	Tuples    []Tuple
	Countries []string
	Rows      []Row
	// Folds lists the traced measurements that rows took in by a Count
	// increment rather than as rows of their own. Like Row.Trace it lives
	// in memory only: neither the encoding nor Split and Halve carry it.
	Folds []Fold

	// tupleIdx, tupleNext and countryIdx are Add's indexes. tupleIdx
	// finds the newest tuple of a (host, campaign, host type) key and
	// tupleNext the older ones, so the observation — four strings — is
	// compared, never hashed. A map keyed on the whole 168-byte Tuple
	// would be simpler but costs twice the time per Add, and Go stores a
	// map key over 128 bytes out of line, one allocation per new tuple.
	// lastCountry lets a row that repeats its predecessor's country skip
	// the map: the rows of one impression share their country.
	tupleIdx     map[tupleKey]int32
	tupleNext    []int32
	countryIdx   map[string]uint32
	lastCountry  string
	lastCountryN uint32
	// gen names this batch's tables, anew at each Reset and at the first
	// tuple of a batch never Reset (0: none yet). tupleMap maps the tuple
	// indexes of the batch whose gen is fromGen to this one's (-1: not
	// copied yet) while AddFrom copies its rows in.
	gen, fromGen uint64
	tupleMap     []int32
	// blob holds every string of a decoded batch's tables, region the
	// encoded tables during Decode (see str).
	blob   string
	region []byte
}

// Reset empties b for a new batch with the given dedup and trace IDs.
func (b *Batch) Reset(id, trace uint64) {
	b.ID, b.Trace = id, trace
	clear(b.Tuples)
	clear(b.Countries)
	b.Tuples, b.Countries, b.Rows, b.Folds = b.Tuples[:0], b.Countries[:0], b.Rows[:0], b.Folds[:0]
	clear(b.tupleIdx)
	b.tupleNext = b.tupleNext[:0]
	clear(b.countryIdx)
	b.lastCountry = ""
	b.blob = ""
	b.gen, b.fromGen = batchGens.Add(1), 0
}

// batchGens numbers table generations process-wide, so a gen names one
// batch's tables even after another batch takes that batch's memory.
var batchGens atomic.Uint64

// tupleKey is a tuple in Add's index: all of it but the observation.
type tupleKey struct {
	host, campaign string
	cat            hostdb.Category
}

// maxTupleChain bounds the tuples of one key Add compares an observation
// with; past it a batch may hold equal tuples twice, which costs bytes,
// never meaning. A study batch has one observation per host type and CA
// plus one per forging product.
const maxTupleChain = 16

// Add appends m as a row of b, adding its tuple and country to the
// tables unless an equal entry is already there (see maxTupleChain). A
// Batch that only Add and AddN filled since its Reset encodes
// canonically: equal measurement sequences give equal bytes.
func (b *Batch) Add(m *Measurement) { b.AddN(m, 1) }

// AddN is Add of a row that stands for n measurements equal to m. n must
// be at least 1, and 1 when m is proxied (see the grammar above).
func (b *Batch) AddN(m *Measurement, n uint32) {
	t := b.tupleOf(m.Host, m.Campaign, m.HostCategory, &m.Obs)
	b.AddRow(Row{ClientIP: m.ClientIP, Tuple: uint32(t), Country: b.countryOf(m.Country), Count: n, Time: m.Time.UnixNano(), Trace: m.Trace})
}

// AddRow appends r, whose tuple and country are already in b's tables.
// The first traced row names the batch's trace.
func (b *Batch) AddRow(r Row) {
	if b.Trace == 0 {
		b.Trace = r.Trace
	}
	b.Rows = append(b.Rows, r)
}

// AddFold records one more traced measurement folded into a row of
// tuple t; the caller added 1 to that row's Count.
func (b *Batch) AddFold(t uint32, trace uint64) {
	b.Folds = append(b.Folds, Fold{Tuple: t, Trace: trace})
}

// AddFrom appends src's row r, count and all, to b as AddN appends
// src.Measurement of that row: the batch AddN would build, save that a
// tuple met again past maxTupleChain newer ones of its key is not stored
// twice. Each of src's tuples is looked up in b's tables once, on first
// use: until b or src is Reset, AddFrom remembers where it put them. Rows from a decoded src
// make b's strings borrowed too (see Record).
func (b *Batch) AddFrom(src *Batch, r Row) {
	if src.gen == 0 || src.gen != b.fromGen {
		b.fromGen, b.tupleMap = src.gen, b.tupleMap[:0]
		if src.blob != "" {
			b.blob = src.blob
		}
	}
	for int(r.Tuple) >= len(b.tupleMap) {
		b.tupleMap = append(b.tupleMap, -1)
	}
	t := b.tupleMap[r.Tuple]
	if t < 0 {
		st := &src.Tuples[r.Tuple]
		t = b.tupleOf(st.Host, st.Campaign, st.HostCategory, &st.Obs)
		b.tupleMap[r.Tuple] = t
	}
	r.Tuple, r.Country = uint32(t), b.countryOf(src.Countries[r.Country])
	b.AddRow(r)
}

// Count is the number of measurements b carries: the sum of its rows'
// counts. Every counter of measurements counts a batch by it.
func (b *Batch) Count() uint64 {
	var n uint64
	for i := range b.Rows {
		n += uint64(b.Rows[i].Count)
	}
	return n
}

// countryOf returns the index of country c, adding it to the table if
// it is new.
func (b *Batch) countryOf(c string) uint32 {
	if len(b.Rows) == 0 || c != b.lastCountry {
		n, ok := b.countryIdx[c]
		if !ok {
			n = uint32(len(b.Countries))
			b.Countries = append(b.Countries, c)
			b.countryIdx[c] = n
		}
		b.lastCountry, b.lastCountryN = c, n
	}
	return b.lastCountryN
}

// tupleOf returns the index of the tuple (host, campaign, cat, obs),
// adding it to the table unless its key's chain holds it. It makes the
// country index too: a row's tuple is looked up before its country.
func (b *Batch) tupleOf(host, campaign string, cat hostdb.Category, obs *Observation) int32 {
	if b.tupleIdx == nil {
		b.tupleIdx, b.countryIdx = make(map[tupleKey]int32), make(map[string]uint32)
	}
	key := tupleKey{host: host, campaign: campaign, cat: cat}
	head, ok := b.tupleIdx[key]
	for i, n := head, 0; ok && i >= 0 && n < maxTupleChain; i, n = b.tupleNext[i], n+1 {
		if b.Tuples[i].Obs == *obs {
			return i
		}
	}
	if b.gen == 0 {
		b.gen = batchGens.Add(1)
	}
	t := int32(len(b.Tuples))
	b.Tuples = append(b.Tuples, Tuple{Host: host, HostCategory: cat, Campaign: campaign, Obs: *obs})
	if !ok {
		head = -1
	}
	b.tupleNext = append(b.tupleNext, head)
	b.tupleIdx[key] = t
	return t
}

// Measurement expands row i, one of the row's Count measurements. Its
// strings are the batch's own, shared with every other row of the same
// tuple or country.
func (b *Batch) Measurement(i int) Measurement {
	r := b.Rows[i]
	t := &b.Tuples[r.Tuple]
	return Measurement{
		Time:         time.Unix(0, r.Time).UTC(),
		ClientIP:     r.ClientIP,
		Country:      b.Countries[r.Country],
		Host:         t.Host,
		HostCategory: t.HostCategory,
		Campaign:     t.Campaign,
		Obs:          t.Obs,
		Trace:        r.Trace,
	}
}

// Record is Measurement(i) for a record kept past the batch, with no
// trace: a decoded batch's strings are copied, so the record does not
// keep the batch's whole string table alive. An Add-built batch's
// strings are already its measurements' own.
func (b *Batch) Record(i int) Measurement {
	m := b.Measurement(i)
	m.Trace = 0
	if b.blob != "" {
		for _, s := range [...]*string{&m.Country, &m.Host, &m.Campaign, &m.Obs.IssuerOrg, &m.Obs.IssuerCN, &m.Obs.IssuerOU, &m.Obs.ProductName} {
			*s = strings.Clone(*s)
		}
	}
	return m
}

// AppendTo appends b's encoding to dst. It panics on a batch of more
// than MaxBatchRows rows, whose table indexes would not fit a row; the
// WAL splits such a commit first. A string longer than
// MaxCodecStringLen encodes to bytes Decode refuses; the WAL
// refuses such a commit before it writes anything.
func (b *Batch) AppendTo(dst []byte) []byte {
	if len(b.Rows) > MaxBatchRows {
		panic(fmt.Sprintf("core: batch of %d rows exceeds %d", len(b.Rows), MaxBatchRows))
	}
	version, rowLen := byte(batchVersion), batchRowLen
	if slices.ContainsFunc(b.Rows, func(r Row) bool { return r.Count != 1 }) {
		version, rowLen = weightedVersion, weightedRowLen
	}
	start := len(dst)
	dst = slices.Grow(dst, batchHdrLen+64*len(b.Tuples)+4*len(b.Countries)+rowLen*len(b.Rows))
	dst = append(dst, batchMagic...)
	dst = append(dst, version, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, b.ID)
	dst = binary.LittleEndian.AppendUint64(dst, b.Trace)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Rows)))
	dst = binary.AppendUvarint(dst, uint64(len(b.Tuples)))
	for i := range b.Tuples {
		t := &b.Tuples[i]
		dst = appendString(dst, t.Host)
		dst = binary.AppendUvarint(dst, uint64(t.HostCategory))
		dst = appendString(dst, t.Campaign)
		dst = AppendObservation(dst, t.Obs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Countries)))
	for _, c := range b.Countries {
		dst = appendString(dst, c)
	}
	rows := len(dst)
	dst = slices.Grow(dst, len(b.Rows)*rowLen)[:rows+len(b.Rows)*rowLen]
	for i, r := range b.Rows {
		p := dst[rows+i*rowLen:]
		binary.LittleEndian.PutUint32(p, r.ClientIP)
		binary.LittleEndian.PutUint64(p[4:], uint64(r.Time))
		binary.LittleEndian.PutUint16(p[12:], uint16(r.Tuple))
		binary.LittleEndian.PutUint16(p[14:], uint16(r.Country))
		if rowLen == weightedRowLen {
			binary.LittleEndian.PutUint32(p[16:], r.Count)
		}
	}
	binary.LittleEndian.PutUint32(dst[start+5:], crc32.Checksum(dst[start+9:], batchCRC))
	return dst
}

// Decode replaces b with the batch p encodes, refusing bad magic or
// version, a CRC mismatch, truncation, trailing bytes, out-of-bounds
// counts, row indexes outside the tables, a zero row count and a proxied
// row whose count is not 1. b keeps nothing of p: every table string is
// a substring of one copy of p's tables, made with the batch's only
// allocation once b's slices have grown.
func (b *Batch) Decode(p []byte) error {
	return b.decode(p, true)
}

// Check is Decode with every table string decoded empty, so nothing is
// allocated: the check a WAL frame or a replicated frame passes before
// it is appended.
func (b *Batch) Check(p []byte) error {
	return b.decode(p, false)
}

func (b *Batch) decode(p []byte, materialize bool) (err error) {
	if len(p) < batchHdrLen || string(p[:4]) != batchMagic {
		return errors.New("core: bad batch magic")
	}
	rowLen := batchRowLen
	switch p[4] {
	case batchVersion:
	case weightedVersion:
		rowLen = weightedRowLen
	default:
		return fmt.Errorf("core: batch version %d, this build reads versions %d and %d", p[4], batchVersion, weightedVersion)
	}
	if crc32.Checksum(p[9:], batchCRC) != binary.LittleEndian.Uint32(p[5:]) {
		return errors.New("core: batch CRC mismatch")
	}
	rows := binary.LittleEndian.Uint32(p[25:])
	if rows > MaxBatchRows {
		return fmt.Errorf("core: batch of %d rows exceeds %d", rows, MaxBatchRows)
	}
	tablesEnd := len(p) - int(rows)*rowLen
	if tablesEnd < batchHdrLen {
		return fmt.Errorf("core: batch truncated: %d rows need %d bytes, %d left", rows, int(rows)*rowLen, len(p)-batchHdrLen)
	}
	b.Reset(binary.LittleEndian.Uint64(p[9:]), binary.LittleEndian.Uint64(p[17:]))
	b.region = p[batchHdrLen:tablesEnd]
	defer func() { b.region = nil }()
	if materialize {
		b.blob = string(b.region)
	}
	rest := b.region
	n, rest, err := readCount(rest, "tuple table")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var t Tuple
		if t.Host, rest, err = readString(rest, "host", b.str); err != nil {
			return err
		}
		var cat uint64
		if cat, rest, err = readUvarint(rest, "host category"); err != nil {
			return err
		}
		t.HostCategory = hostdb.Category(cat)
		if t.Campaign, rest, err = readString(rest, "campaign", b.str); err != nil {
			return err
		}
		if t.Obs, rest, err = DecodeObservation(rest, b.str); err != nil {
			return fmt.Errorf("core: batch tuple %d: %w", i, err)
		}
		b.Tuples = append(b.Tuples, t)
	}
	if n, rest, err = readCount(rest, "country table"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var c string
		if c, rest, err = readString(rest, "country", b.str); err != nil {
			return err
		}
		b.Countries = append(b.Countries, c)
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: batch has %d stray bytes before its rows", len(rest))
	}
	for r := p[tablesEnd:]; len(r) > 0; r = r[rowLen:] {
		row := Row{
			ClientIP: binary.LittleEndian.Uint32(r),
			Time:     int64(binary.LittleEndian.Uint64(r[4:])),
			Tuple:    uint32(binary.LittleEndian.Uint16(r[12:])),
			Country:  uint32(binary.LittleEndian.Uint16(r[14:])),
			Count:    1,
		}
		if rowLen == weightedRowLen {
			row.Count = binary.LittleEndian.Uint32(r[16:])
		}
		if int(row.Tuple) >= len(b.Tuples) || int(row.Country) >= len(b.Countries) {
			return fmt.Errorf("core: batch row %d names tuple %d of %d, country %d of %d",
				len(b.Rows), row.Tuple, len(b.Tuples), row.Country, len(b.Countries))
		}
		if row.Count == 0 || row.Count != 1 && b.Tuples[row.Tuple].Obs.Proxied {
			return fmt.Errorf("core: batch row %d has count %d: want at least 1, and 1 for a proxied row", len(b.Rows), row.Count)
		}
		b.Rows = append(b.Rows, row)
	}
	return nil
}

// str maps a string's bytes inside region onto the same bytes of blob:
// s shares region's end, so their capacities differ by s's offset.
func (b *Batch) str(s []byte) string {
	if b.blob == "" {
		return ""
	}
	off := cap(b.region) - cap(s)
	return b.blob[off : off+len(s)]
}

// readCount reads a table's entry count. Every entry takes at least one
// byte, so a count past the bytes left is damage, not a table.
func readCount(p []byte, table string) (int, []byte, error) {
	n, p, err := readUvarint(p, table)
	if err != nil {
		return 0, nil, err
	}
	if n > MaxBatchRows || n > uint64(len(p)) {
		return 0, nil, fmt.Errorf("core: batch %s of %d entries out of bounds", table, n)
	}
	return int(n), p, nil
}

// Split deals b's rows out to parts by their tuple: part[t] is the index
// into parts of tuple t's part. Each part becomes a self-contained batch
// with b's IDs, holding its rows in b's order and, in first-use order,
// only the tuples and countries those rows name — for a b that Add
// built, the batch Add would build from those rows.
func (b *Batch) Split(part []int, parts []Batch) {
	for i := range parts {
		parts[i].Reset(b.ID, b.Trace)
	}
	for _, r := range b.Rows {
		parts[part[r.Tuple]].AddFrom(b, r)
	}
}

// Halve deals b's first half of rows to lo and the rest to hi, each a
// self-contained batch with b's IDs, as Split builds its parts.
func (b *Batch) Halve(lo, hi *Batch) {
	mid := len(b.Rows) / 2
	lo.Reset(b.ID, b.Trace)
	hi.Reset(b.ID, b.Trace)
	for _, r := range b.Rows[:mid] {
		lo.AddFrom(b, r)
	}
	for _, r := range b.Rows[mid:] {
		hi.AddFrom(b, r)
	}
}
