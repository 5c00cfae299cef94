package store

import (
	"sort"

	"tlsfof/internal/core"
)

// Merge combines databases that each hold a partition of one measurement
// stream into one DB whose aggregates equal the DB a single-threaded
// ingest of the whole stream would have produced. It is the reduce step
// behind the sharded ingest pipeline (internal/ingest: one store per
// host-hash shard), the cluster (one per node) and study.Run (one per
// campaign).
//
// Every count of the cell table is a sum, so the merged result is
// independent of shard count and ingest interleaving. The proxied
// records, which every other table is a query over, are canonicalized
// into a deterministic total order (they arrive in per-shard order,
// which is timing-dependent across runs); retainLimit caps only what the
// merged DB's ProxiedRecords and exports return (<= 0 means unlimited).
//
// Merge locks each source DB only while copying it, so it may be called
// on live shards for a point-in-time snapshot; the snapshot is per-shard
// consistent but not atomic across shards.
func Merge(retainLimit int, dbs ...*DB) *DB {
	out := New(retainLimit)
	records := 0
	for _, db := range dbs {
		if db != nil {
			db.mu.Lock()
			records += len(db.proxied)
			db.mu.Unlock()
		}
	}
	out.proxied = make([]core.Measurement, 0, records)
	for _, db := range dbs {
		if db == nil {
			continue
		}
		mergeOne(out, db)
	}
	sort.SliceStable(out.proxied, func(i, j int) bool {
		return measurementLess(out.proxied[i], out.proxied[j])
	})
	return out
}

func mergeOne(out, db *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for k, a := range db.cells {
		out.cells[k] = out.cells[k].plus(a.Tested, a.Proxied)
	}
	out.proxied = append(out.proxied, db.proxied...)
}

// measurementLess is a total order over every field of a Measurement, so
// records that differ anywhere sort deterministically and true duplicates
// are interchangeable.
func measurementLess(a, b core.Measurement) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	if a.Campaign != b.Campaign {
		return a.Campaign < b.Campaign
	}
	if a.ClientIP != b.ClientIP {
		return a.ClientIP < b.ClientIP
	}
	if a.Host != b.Host {
		return a.Host < b.Host
	}
	if a.Country != b.Country {
		return a.Country < b.Country
	}
	if a.HostCategory != b.HostCategory {
		return a.HostCategory < b.HostCategory
	}
	return observationLess(a.Obs, b.Obs)
}

func observationLess(a, b core.Observation) bool {
	if a.IssuerOrg != b.IssuerOrg {
		return a.IssuerOrg < b.IssuerOrg
	}
	if a.IssuerCN != b.IssuerCN {
		return a.IssuerCN < b.IssuerCN
	}
	if a.IssuerOU != b.IssuerOU {
		return a.IssuerOU < b.IssuerOU
	}
	if a.KeyBits != b.KeyBits {
		return a.KeyBits < b.KeyBits
	}
	if a.OriginalKeyBits != b.OriginalKeyBits {
		return a.OriginalKeyBits < b.OriginalKeyBits
	}
	if a.SigAlg != b.SigAlg {
		return a.SigAlg < b.SigAlg
	}
	if a.Category != b.Category {
		return a.Category < b.Category
	}
	if a.ProductName != b.ProductName {
		return a.ProductName < b.ProductName
	}
	if a.ChainLen != b.ChainLen {
		return a.ChainLen < b.ChainLen
	}
	bools := [][2]bool{
		{a.Proxied, b.Proxied},
		{a.NullIssuer, b.NullIssuer},
		{a.MD5Signed, b.MD5Signed},
		{a.WeakKey, b.WeakKey},
		{a.UpgradedKey, b.UpgradedKey},
		{a.IssuerCopied, b.IssuerCopied},
		{a.SubjectDrift, b.SubjectDrift},
	}
	for _, p := range bools {
		if p[0] != p[1] {
			return !p[0]
		}
	}
	return false
}
