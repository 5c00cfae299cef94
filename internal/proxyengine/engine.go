package proxyengine

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"strings"
	"time"

	"tlsfof/internal/certgen"
)

// Action is what the engine decided to do with one connection.
type Action int

const (
	// ActionIntercept: the proxy forged a substitute chain.
	ActionIntercept Action = iota
	// ActionPassthrough: the host is whitelisted; traffic flows untouched.
	ActionPassthrough
	// ActionBlock: upstream validation failed and the profile rejects.
	ActionBlock
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionIntercept:
		return "intercept"
	case ActionPassthrough:
		return "passthrough"
	case ActionBlock:
		return "block"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// ErrUpstreamInvalid is returned when the profile rejects an upstream chain
// that fails validation.
var ErrUpstreamInvalid = errors.New("proxyengine: upstream certificate invalid")

// Decision is the outcome of Engine.Decide for one host.
type Decision struct {
	Action Action
	// ChainDER is the substitute chain when Action == ActionIntercept.
	ChainDER [][]byte
	// UpstreamValid records the proxy's own upstream validation verdict
	// (true when validation is disabled).
	UpstreamValid bool
	// Masked is true when the upstream was invalid but the proxy forged a
	// trusted substitute anyway — the Kurupira flaw in action.
	Masked bool
	// Defects is the per-axis verdict on the upstream chain (empty when
	// validation is disabled or the chain is clean); the audit grid
	// grades products by which of these they accept.
	Defects DefectSet
}

// Engine forges substitute certificates per a Profile. It owns the root CA
// that the interception product installed into its victims' root stores,
// and caches one forgery per host exactly as real products do (§2: the
// proxy "can issue a substitute certificate for any site the user visits").
// The cache is a bounded, sharded, single-flight LRU (ForgeCache, over
// chaincache.LRU), so a storm of concurrent connections to one origin
// forges once and every client sees the identical substitute.
//
// Engine is safe for concurrent use.
type Engine struct {
	Profile Profile
	// CA is the proxy's signing authority; its certificate is what got
	// injected into the client root store.
	CA *certgen.CA

	pool     *certgen.KeyPool
	cache    *ForgeCache
	clockNow func() time.Time
}

// Options configures New.
type Options struct {
	// Pool supplies forged-leaf keys (DefaultPool when nil).
	Pool *certgen.KeyPool
	// CAKeyBits sizes the CA key (default 2048).
	CAKeyBits int
	// Now overrides the validity-period clock for deterministic tests.
	Now func() time.Time
	// CacheCap bounds the forged-chain cache (DefaultForgeCacheCap when
	// <= 0).
	CacheCap int
}

// New builds an engine: it mints the profile's root CA and prepares the
// forgery cache.
func New(profile Profile, opts Options) (*Engine, error) {
	pool := opts.Pool
	if pool == nil {
		pool = certgen.DefaultPool
	}
	caBits := opts.CAKeyBits
	if caBits == 0 {
		caBits = 2048
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	// Each proxy identity gets its own named CA key: drawing from the
	// shared round-robin pool could hand a proxy the same RSA key as the
	// authoritative CA it forges against, which would make forged
	// signatures genuinely verify.
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject:   profile.caSubject(),
		KeyBits:   caBits,
		Pool:      pool,
		NotBefore: now().AddDate(-1, 0, 0),
		KeyName:   "proxy-ca:" + profile.ProductName + "|" + profile.IssuerOrg + "|" + profile.IssuerCN,
	})
	if err != nil {
		return nil, fmt.Errorf("proxyengine: mint CA for %q: %w", profile.ProductName, err)
	}
	return &Engine{
		Profile:  profile,
		CA:       ca,
		pool:     pool,
		cache:    NewForgeCache(opts.CacheCap, 0),
		clockNow: now,
	}, nil
}

// Decide runs the full interception decision for host, given the
// authoritative upstream chain (leaf-first, parsed and raw).
func (e *Engine) Decide(host string, upstream []*x509.Certificate, upstreamDER [][]byte) (Decision, error) {
	if e.Profile.Whitelist != nil && e.Profile.Whitelist(host) {
		return Decision{Action: ActionPassthrough, UpstreamValid: true}, nil
	}

	valid := true
	var defects DefectSet
	if e.Profile.UpstreamRoots != nil && len(upstream) > 0 {
		pol := e.Profile.Upstream
		defects = ClassifyUpstreamChain(host, upstream, e.Profile.UpstreamRoots, e.clockNow(), pol.Revoked)
		valid = defects.Empty()
		if !defects.RejectedBy(pol).Empty() {
			return Decision{Action: ActionBlock, UpstreamValid: false, Defects: defects}, ErrUpstreamInvalid
		}
	}

	chain, err := e.forge(host, upstream)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Action:        ActionIntercept,
		ChainDER:      chain,
		UpstreamValid: valid,
		Masked:        !valid,
		Defects:       defects,
	}, nil
}

// forge returns the cached or freshly minted substitute chain for host.
// Concurrent misses on one host collapse into a single mint (see
// ForgeCache).
func (e *Engine) forge(host string, upstream []*x509.Certificate) ([][]byte, error) {
	leaf, err := e.cache.GetOrForge(host, func() (*certgen.Leaf, error) {
		return e.mint(host, upstream)
	})
	if err != nil {
		return nil, err
	}
	return leaf.ChainDER, nil
}

// mint issues a fresh substitute leaf for host per the profile; it is the
// single-flight callee behind forge.
func (e *Engine) mint(host string, upstream []*x509.Certificate) (*certgen.Leaf, error) {
	cfg := certgen.LeafConfig{
		CommonName: host,
		KeyBits:    e.Profile.LeafKeyBits(),
		SigAlg:     e.Profile.SigAlg,
		Pool:       e.pool,
		NotBefore:  e.clockNow().Add(-24 * time.Hour),
		NotAfter:   e.clockNow().AddDate(1, 0, 0),
	}

	switch e.Profile.SubjectMode {
	case SubjectWildcardIP:
		// A wildcarded IP subnet instead of the hostname.
		cfg.Subject = &pkix.Name{CommonName: "*.64.112.0"}
		cfg.DNSNames = []string{"*.64.112.0"}
	case SubjectWrongDomain:
		cfg.Subject = &pkix.Name{CommonName: "mail.google.com"}
		cfg.DNSNames = []string{"mail.google.com"}
	default:
		// Copy the upstream subject CN when present; fall back to the
		// probed host.
		if len(upstream) > 0 && upstream[0].Subject.CommonName != "" {
			cfg.CommonName = upstream[0].Subject.CommonName
			cfg.DNSNames = append([]string{}, upstream[0].DNSNames...)
			if len(cfg.DNSNames) == 0 {
				cfg.DNSNames = []string{cfg.CommonName}
			}
		}
	}

	if e.Profile.CopyUpstreamIssuer && len(upstream) > 0 {
		issuer := upstream[0].Issuer
		cfg.Issuer = &issuer
	}

	if e.Profile.SharedKeyName != "" {
		key, err := e.pool.Named(e.Profile.SharedKeyName, e.Profile.LeafKeyBits())
		if err != nil {
			return nil, err
		}
		cfg.Key = key
	}

	fresh, err := e.CA.IssueLeaf(cfg)
	if err != nil {
		return nil, fmt.Errorf("proxyengine: forge for %q: %w", host, err)
	}
	return fresh, nil
}

// CacheStats snapshots the forged-chain cache accounting (hits, misses,
// forges, evictions); cmd/mitmd serves it from /metrics.
func (e *Engine) CacheStats() ForgeStats { return e.cache.Stats() }

// HostnameForSNI normalizes an SNI value for interception decisions.
func HostnameForSNI(sni string) string {
	return strings.ToLower(strings.TrimSuffix(sni, "."))
}
