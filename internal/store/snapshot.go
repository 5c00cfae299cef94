package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
)

// Snapshot serialization: the durable persistence plane (internal/durable)
// periodically folds the WAL prefix into one of these compact aggregate
// images so disk stays bounded at paper scale — a snapshot of a 12.3M-test
// store is a few megabytes (aggregates plus retained proxied records)
// against gigabytes of raw WAL frames.
//
// The encoding is deterministic (every map walks in sorted key order) and
// exact: DecodeSnapshot(AppendSnapshot(db)) reproduces every aggregate,
// every distinct-IP/country set, and the retained proxied records in
// order, so tables rendered from a decoded snapshot are byte-identical to
// tables rendered from the live store. Framing (magic, CRC, atomic file
// replacement) is the durable layer's job; this file only encodes state.
//
// The retained proxied records are batch frames (internal/core's
// layout): the count of frames, then each frame as a uint32le length and
// its bytes. The records are cut into frames of at most
// core.MaxBatchRows, in order, each built with core.Batch.Add and
// encoded with dedup and trace IDs 0, so equal record sequences give
// equal bytes.

// snapshotVersion is bumped on any encoding change; decode rejects
// mismatches rather than guessing.
const snapshotVersion = 2

// AppendSnapshot appends the deterministic binary image of the store to
// dst and returns the extended slice. It takes the store lock once.
func (db *DB) AppendSnapshot(dst []byte) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()

	dst = append(dst, snapshotVersion)
	dst = binary.AppendVarint(dst, int64(db.retainLimit))
	dst = binary.AppendUvarint(dst, uint64(db.totals.Tested))
	dst = binary.AppendUvarint(dst, uint64(db.totals.Proxied))

	dst = appendAggMap(dst, db.byCountry)
	dst = binary.AppendUvarint(dst, uint64(len(db.byHostCat)))
	for _, k := range sortedKeysInt(db.byHostCat) {
		a := db.byHostCat[k]
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = binary.AppendUvarint(dst, uint64(a.Tested))
		dst = binary.AppendUvarint(dst, uint64(a.Proxied))
	}
	dst = appendAggMap(dst, db.byCampaign)

	entries := db.issuerOrgs.Top(0)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = appendSnapString(dst, e.Key)
		dst = binary.AppendUvarint(dst, uint64(e.Count))
	}

	cats := make([]classify.Category, 0, len(db.categories))
	for k := range db.categories {
		cats = append(cats, k)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	dst = binary.AppendUvarint(dst, uint64(len(cats)))
	for _, k := range cats {
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = binary.AppendUvarint(dst, uint64(db.categories[k]))
	}

	n := db.negligence
	for _, v := range []int{n.Proxied, n.Key512, n.Key1024, n.Key2432,
		n.MD5Signed, n.MD5And512, n.FullStrength,
		n.IssuerCopied, n.SubjectDrift, n.NullIssuer} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}

	products := sortedKeysStr(db.productConns)
	dst = binary.AppendUvarint(dst, uint64(len(products)))
	for _, name := range products {
		dst = appendSnapString(dst, name)
		dst = binary.AppendUvarint(dst, uint64(db.productConns[name]))
		dst = appendIPSet(dst, db.productIPs[name])
		dst = appendStrSet(dst, db.productCountries[name])
	}

	dst = appendIPSet(dst, db.proxiedIPs)
	dst = appendStrSet(dst, db.proxiedCountries)

	var batch core.Batch
	dst = binary.AppendUvarint(dst, uint64((len(db.proxied)+core.MaxBatchRows-1)/core.MaxBatchRows))
	for rest := db.proxied; len(rest) > 0; rest = rest[min(len(rest), core.MaxBatchRows):] {
		batch.Reset(0, 0)
		for i := range rest[:min(len(rest), core.MaxBatchRows)] {
			batch.Add(&rest[i])
		}
		batch.Trace = 0
		start := len(dst)
		dst = batch.AppendTo(append(dst, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	}
	return dst
}

// DecodeSnapshot rebuilds a store from a snapshot image produced by
// AppendSnapshot. The image must be complete; trailing bytes are an
// error (the durable layer hands over an exact, CRC-verified payload).
func DecodeSnapshot(b []byte) (*DB, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("store: empty snapshot")
	}
	if b[0] != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d, this build reads version %d", b[0], snapshotVersion)
	}
	b = b[1:]
	retain, b, err := readSnapVarint(b, "retain limit")
	if err != nil {
		return nil, err
	}
	db := New(int(retain))
	tested, b, err := readSnapUvarint(b, "totals tested")
	if err != nil {
		return nil, err
	}
	proxied, b, err := readSnapUvarint(b, "totals proxied")
	if err != nil {
		return nil, err
	}
	db.totals = Agg{Tested: int(tested), Proxied: int(proxied)}

	if b, err = decodeAggMap(b, db.byCountry, "country"); err != nil {
		return nil, err
	}
	count, b, err := readSnapCount(b, "host category count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var k, t, p uint64
		if k, b, err = readSnapUvarint(b, "host category"); err != nil {
			return nil, err
		}
		if t, b, err = readSnapUvarint(b, "host category tested"); err != nil {
			return nil, err
		}
		if p, b, err = readSnapUvarint(b, "host category proxied"); err != nil {
			return nil, err
		}
		db.byHostCat[hostdb.Category(k)] = Agg{Tested: int(t), Proxied: int(p)}
	}
	if b, err = decodeAggMap(b, db.byCampaign, "campaign"); err != nil {
		return nil, err
	}

	if count, b, err = readSnapCount(b, "issuer count"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var key string
		var c uint64
		if key, b, err = readSnapString(b, "issuer key"); err != nil {
			return nil, err
		}
		if c, b, err = readSnapUvarint(b, "issuer tally"); err != nil {
			return nil, err
		}
		db.issuerOrgs.AddN(key, int(c))
	}

	if count, b, err = readSnapCount(b, "category count"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var k, c uint64
		if k, b, err = readSnapUvarint(b, "category"); err != nil {
			return nil, err
		}
		if c, b, err = readSnapUvarint(b, "category tally"); err != nil {
			return nil, err
		}
		db.categories[classify.Category(k)] = int(c)
	}

	neg := []*int{&db.negligence.Proxied, &db.negligence.Key512,
		&db.negligence.Key1024, &db.negligence.Key2432,
		&db.negligence.MD5Signed, &db.negligence.MD5And512,
		&db.negligence.FullStrength, &db.negligence.IssuerCopied,
		&db.negligence.SubjectDrift, &db.negligence.NullIssuer}
	for _, field := range neg {
		var v uint64
		if v, b, err = readSnapUvarint(b, "negligence"); err != nil {
			return nil, err
		}
		*field = int(v)
	}

	if count, b, err = readSnapCount(b, "product count"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var name string
		var conns uint64
		if name, b, err = readSnapString(b, "product name"); err != nil {
			return nil, err
		}
		if conns, b, err = readSnapUvarint(b, "product conns"); err != nil {
			return nil, err
		}
		db.productConns[name] = int(conns)
		if db.productIPs[name], b, err = decodeIPSet(b); err != nil {
			return nil, err
		}
		if db.productCountries[name], b, err = decodeStrSet(b); err != nil {
			return nil, err
		}
	}

	if db.proxiedIPs, b, err = decodeIPSet(b); err != nil {
		return nil, err
	}
	if db.proxiedCountries, b, err = decodeStrSet(b); err != nil {
		return nil, err
	}

	if count, b, err = readSnapCount(b, "retained batch count"); err != nil {
		return nil, err
	}
	var batch core.Batch
	for i := uint64(0); i < count; i++ {
		if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
			return nil, fmt.Errorf("store: snapshot truncated at retained batch %d", i)
		}
		frame := b[4 : 4+binary.LittleEndian.Uint32(b)]
		if err := batch.Decode(frame); err != nil {
			return nil, fmt.Errorf("store: snapshot retained batch %d: %w", i, err)
		}
		b = b[4+len(frame):]
		for r := range batch.Rows {
			db.proxied = append(db.proxied, batch.Measurement(r))
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("store: snapshot has %d trailing bytes", len(b))
	}
	return db, nil
}

func appendAggMap(dst []byte, m map[string]Agg) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		a := m[k]
		dst = appendSnapString(dst, k)
		dst = binary.AppendUvarint(dst, uint64(a.Tested))
		dst = binary.AppendUvarint(dst, uint64(a.Proxied))
	}
	return dst
}

func decodeAggMap(b []byte, m map[string]Agg, what string) ([]byte, error) {
	count, b, err := readSnapCount(b, what+" count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var k string
		var t, p uint64
		if k, b, err = readSnapString(b, what+" key"); err != nil {
			return nil, err
		}
		if t, b, err = readSnapUvarint(b, what+" tested"); err != nil {
			return nil, err
		}
		if p, b, err = readSnapUvarint(b, what+" proxied"); err != nil {
			return nil, err
		}
		m[k] = Agg{Tested: int(t), Proxied: int(p)}
	}
	return b, nil
}

func appendIPSet(dst []byte, set map[uint32]struct{}) []byte {
	ips := make([]uint32, 0, len(set))
	for ip := range set {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	dst = binary.AppendUvarint(dst, uint64(len(ips)))
	// Delta-encode the sorted addresses; varint deltas keep dense client
	// populations near one byte per IP.
	var prev uint32
	for _, ip := range ips {
		dst = binary.AppendUvarint(dst, uint64(ip-prev))
		prev = ip
	}
	return dst
}

func decodeIPSet(b []byte) (map[uint32]struct{}, []byte, error) {
	count, b, err := readSnapCount(b, "ip set count")
	if err != nil {
		return nil, nil, err
	}
	set := make(map[uint32]struct{}, count)
	var prev uint32
	for i := uint64(0); i < count; i++ {
		var d uint64
		if d, b, err = readSnapUvarint(b, "ip delta"); err != nil {
			return nil, nil, err
		}
		prev += uint32(d)
		set[prev] = struct{}{}
	}
	return set, b, nil
}

func appendStrSet(dst []byte, set map[string]struct{}) []byte {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendSnapString(dst, k)
	}
	return dst
}

func decodeStrSet(b []byte) (map[string]struct{}, []byte, error) {
	count, b, err := readSnapCount(b, "string set count")
	if err != nil {
		return nil, nil, err
	}
	set := make(map[string]struct{}, count)
	for i := uint64(0); i < count; i++ {
		var k string
		var err error
		if k, b, err = readSnapString(b, "string set key"); err != nil {
			return nil, nil, err
		}
		set[k] = struct{}{}
	}
	return set, b, nil
}

func sortedKeysStr(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysInt(m map[hostdb.Category]Agg) []hostdb.Category {
	keys := make([]hostdb.Category, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func appendSnapString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readSnapUvarint(b []byte, field string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("store: snapshot truncated at %s", field)
	}
	return v, b[n:], nil
}

// readSnapCount reads an entry count. Every entry takes at least one
// byte, so a count past the bytes left is damage; bounding it keeps a
// damaged or hostile image from sizing an allocation.
func readSnapCount(b []byte, field string) (uint64, []byte, error) {
	n, b, err := readSnapUvarint(b, field)
	if err == nil && n > uint64(len(b)) {
		return 0, nil, fmt.Errorf("store: snapshot %s %d exceeds the %d bytes left", field, n, len(b))
	}
	return n, b, err
}

func readSnapVarint(b []byte, field string) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("store: snapshot truncated at %s", field)
	}
	return v, b[n:], nil
}

func readSnapString(b []byte, field string) (string, []byte, error) {
	n, b, err := readSnapUvarint(b, field)
	if err != nil {
		return "", nil, err
	}
	if n > core.MaxCodecStringLen {
		return "", nil, fmt.Errorf("store: snapshot %s of %d bytes exceeds %d", field, n, core.MaxCodecStringLen)
	}
	if uint64(len(b)) < n {
		return "", nil, fmt.Errorf("store: snapshot truncated at %s", field)
	}
	return string(b[:n]), b[n:], nil
}
