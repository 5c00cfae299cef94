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
// Every aggregate (totals, per-country/host-type/campaign tables, issuer
// histogram, classification counts, negligence stats, product diversity,
// distinct-IP and distinct-country sets) is commutative, so the merged
// result is independent of shard count and ingest interleaving. Retained
// proxied records are canonicalized into a deterministic total order (they
// arrive in per-shard order, which is timing-dependent across runs) and
// then re-capped at retainLimit (<= 0 means unlimited).
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
	if retainLimit > 0 && len(out.proxied) > retainLimit {
		out.proxied = out.proxied[:retainLimit]
	}
	return out
}

func mergeOne(out, db *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()

	out.totals = out.totals.plus(db.totals.Tested, db.totals.Proxied)
	mergeAggMap(out.byCountry, db.byCountry)
	mergeAggMap(out.byHostCat, db.byHostCat)
	mergeAggMap(out.byCampaign, db.byCampaign)

	out.issuerOrgs.Merge(db.issuerOrgs)
	for k, v := range db.categories {
		out.categories[k] += v
	}

	a, b := &out.negligence, &db.negligence
	a.Proxied += b.Proxied
	a.Key512 += b.Key512
	a.Key1024 += b.Key1024
	a.Key2432 += b.Key2432
	a.MD5Signed += b.MD5Signed
	a.MD5And512 += b.MD5And512
	a.FullStrength += b.FullStrength
	a.IssuerCopied += b.IssuerCopied
	a.SubjectDrift += b.SubjectDrift
	a.NullIssuer += b.NullIssuer

	for name, conns := range db.productConns {
		out.productConns[name] += conns
	}
	for name, ips := range db.productIPs {
		dst := out.productIPs[name]
		if dst == nil {
			dst = make(map[uint32]struct{}, len(ips))
			out.productIPs[name] = dst
		}
		for ip := range ips {
			dst[ip] = struct{}{}
		}
	}
	for name, cs := range db.productCountries {
		dst := out.productCountries[name]
		if dst == nil {
			dst = make(map[string]struct{}, len(cs))
			out.productCountries[name] = dst
		}
		for c := range cs {
			dst[c] = struct{}{}
		}
	}
	for ip := range db.proxiedIPs {
		out.proxiedIPs[ip] = struct{}{}
	}
	for c := range db.proxiedCountries {
		out.proxiedCountries[c] = struct{}{}
	}

	out.proxied = append(out.proxied, db.proxied...)
}

func mergeAggMap[K comparable](dst, src map[K]Agg) {
	for k, v := range src {
		dst[k] = dst[k].plus(v.Tested, v.Proxied)
	}
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
