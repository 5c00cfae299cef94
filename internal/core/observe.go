// Package core is the paper's primary contribution as a library: the TLS
// proxy measurement pipeline.
//
// It has three parts. Observe derives the structured facts about one
// captured certificate chain relative to the authoritative chain — the
// analysis §5 and §6 run on every report. Tool is the client-side
// measurement app (the Flash tool's Go equivalent): socket-policy
// pre-flight, partial TLS handshake, and report upload. Collector is the
// server side: it receives concatenated-PEM reports, compares them with
// the authoritative chains, geolocates the client, classifies the claimed
// issuer, and emits Measurement records to a sink.
package core

import (
	"crypto/x509"
	"fmt"
	"time"

	"tlsfof/internal/chaincache"
	"tlsfof/internal/classify"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/x509util"
)

// Observation is everything the analysis pipeline knows about one
// certificate test, derived mechanically from the two chains.
type Observation struct {
	// Proxied is the headline bit: the observed chain differs from the
	// authoritative one.
	Proxied bool

	// Claimed issuer fields of the observed leaf.
	IssuerOrg string
	IssuerCN  string
	IssuerOU  string
	// NullIssuer marks an entirely blank issuer (§6.4's 1,518 cohort).
	NullIssuer bool

	// Key and signature facts (§5.2).
	KeyBits         int
	OriginalKeyBits int
	SigAlg          x509.SignatureAlgorithm
	MD5Signed       bool
	WeakKey         bool // < 2048 bits
	UpgradedKey     bool // > original (the 2432-bit cohort)

	// Forgery anatomy.
	IssuerCopied bool // claims the authoritative issuer without its signature
	SubjectDrift bool // subject no longer matches the probed host
	ChainLen     int

	// Classification of the claimed issuer.
	Category    classify.Category
	ProductName string // matched product database entry, "" when none
}

// Observe compares an observed chain against the authoritative chain for
// hostname and derives the full observation. Both chains are leaf-first
// DER. The classifier must be non-nil.
func Observe(hostname string, authoritativeDER, observedDER [][]byte, cl *classify.Classifier) (Observation, error) {
	auth, err := x509util.ParseChain(authoritativeDER)
	if err != nil {
		return Observation{}, fmt.Errorf("core: authoritative chain: %w", err)
	}
	obs, err := x509util.ParseChain(observedDER)
	if err != nil {
		return Observation{}, fmt.Errorf("core: observed chain: %w", err)
	}
	m, err := x509util.CompareChains(hostname, auth, obs, authoritativeDER, observedDER)
	if err != nil {
		return Observation{}, err
	}
	o := Observation{
		Proxied:         m.Proxied,
		IssuerOrg:       m.IssuerOrganization,
		IssuerCN:        m.IssuerCommonName,
		KeyBits:         m.LeafKeyBits,
		OriginalKeyBits: m.OriginalKeyBits,
		SigAlg:          m.SignatureAlgorithm,
		MD5Signed:       m.MD5Signed,
		WeakKey:         m.WeakKey,
		UpgradedKey:     m.LeafKeyBits > m.OriginalKeyBits,
		IssuerCopied:    m.IssuerCopied,
		SubjectDrift:    m.SubjectDrift,
		ChainLen:        m.ChainLength,
	}
	if len(obs[0].Issuer.OrganizationalUnit) > 0 {
		o.IssuerOU = obs[0].Issuer.OrganizationalUnit[0]
	}
	if o.Proxied {
		res := cl.Classify(o.IssuerOrg, o.IssuerCN, o.IssuerOU)
		o.Category = res.Category
		o.NullIssuer = res.NullIssuer
		if res.Product != nil {
			o.ProductName = res.Product.Name
			if o.ProductName == "" {
				o.ProductName = res.Product.CommonName
			}
		}
	}
	return o, nil
}

// ObservationCache memoizes derived observations by their complete input
// — (host, authoritative chain, observed chain) — the report path's
// chain-analysis cache. Observe is a pure function of exactly those
// inputs and the cache serves a value only for byte-identical inputs, so
// memoization is lossless (DESIGN.md §8).
type ObservationCache = chaincache.Cache[Observation]

// NewObservationCache builds an observation cache (chaincache defaults
// applied when cap or shards <= 0).
func NewObservationCache(cap, shards int) *ObservationCache {
	return chaincache.New[Observation](cap, shards)
}

// ObserveCached is Observe behind the content-keyed memo: repeated
// (host, chain) pairs — the overwhelming majority of reports, per the
// paper's product skew — skip certificate parsing, chain comparison, and
// classification entirely. A nil cache degrades to plain Observe.
// Derivation is single-flight per distinct input, and derivation errors
// are never cached.
func ObserveCached(cache *ObservationCache, hostname string, authoritativeDER, observedDER [][]byte, cl *classify.Classifier) (Observation, error) {
	if cache == nil {
		return Observe(hostname, authoritativeDER, observedDER, cl)
	}
	return cache.GetOrDerive(hostname, authoritativeDER, observedDER, func() (Observation, error) {
		return Observe(hostname, authoritativeDER, observedDER, cl)
	})
}

// Measurement is one completed certificate test with its full context —
// the unit every table in the evaluation aggregates over.
type Measurement struct {
	Time time.Time
	// ClientIP is the reporting client's IPv4 address (big-endian).
	ClientIP uint32
	// Country is the geolocated ISO code ("" when lookup failed).
	Country string
	// Host is the probed server; HostCategory its Table 8 type.
	Host         string
	HostCategory hostdb.Category
	// Campaign identifies which ad campaign delivered the client.
	Campaign string
	// Obs is the derived certificate observation.
	Obs Observation
	// Trace is the probe's telemetry trace ID (0 when untraced). It is
	// observability metadata, not measurement data: a batch frame keeps
	// only its first traced row's ID in its header and no row keeps one,
	// and a snapshot's retained records keep none, so tracing changes no
	// row, snapshot or golden-table byte.
	Trace uint64
}
