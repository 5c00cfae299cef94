package study

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/x509util"
)

// behaviorSig is the mechanical fingerprint of a product's forging
// behavior. Products sharing a signature produce byte-equivalent forgeries
// up to issuer naming, so fast mode runs one real proxy engine per
// signature and derives per-product observations from it (DESIGN.md §5).
type behaviorSig struct {
	keyBits      int
	md5          bool
	sharedKey    bool
	copiesIssuer bool
	subjectMode  proxyengine.SubjectMode
}

func sigOf(p *classify.Product) behaviorSig {
	s := behaviorSig{keyBits: p.KeyBits}
	if s.keyBits == 0 {
		s.keyBits = 1024
	}
	if p.UpgradesKey {
		s.keyBits = 2432
	}
	if p.SharedKey512 {
		s.keyBits = 512
		s.sharedKey = true
	}
	s.md5 = p.MD5
	s.copiesIssuer = p.CopiesIssuer
	switch {
	case p.WildcardIPSubject:
		s.subjectMode = proxyengine.SubjectWildcardIP
	case p.WrongDomainSubject:
		s.subjectMode = proxyengine.SubjectWrongDomain
	}
	return s
}

// obsFactory produces core.Observation values for (deployment, host) pairs
// using real forging engines, memoizing aggressively: the 12.3M-test study
// touches at most |deployments| × |hosts| distinct pairs. Every table is
// indexed by host position (and deployment position), never by name, and
// every value derives through core.Observe (DESIGN.md §5).
type obsFactory struct {
	classifier *classify.Classifier
	pool       *certgen.KeyPool
	hosts      []hostdb.Host
	deps       []clientpop.Deployment

	// Immutable after newObsFactory: each host's authoritative chain and
	// its no-proxy observation.
	chains [][][]byte
	clean  []core.Observation

	// final memoizes observation per [depIdx][hostIdx]. Slots fill lazily
	// and are read without a lock; racing fillers store equal values.
	final [][]atomic.Pointer[core.Observation]

	// mu guards the engine table and the per-signature archetype
	// observations (indexed by host position). An engine is created by
	// its entry's once, outside mu, so two signatures' CA keys can mint
	// at the same time.
	mu      sync.Mutex
	engines map[behaviorSig]func() (*proxyengine.Engine, error)
	sigObs  map[behaviorSig][]*core.Observation
}

// newObsFactory derives every host's clean observation up front, so a
// host missing from auth fails here rather than mid-campaign.
func newObsFactory(cl *classify.Classifier, pool *certgen.KeyPool, hosts []hostdb.Host, auth *Authoritative, deps []clientpop.Deployment) (*obsFactory, error) {
	f := &obsFactory{
		classifier: cl,
		pool:       pool,
		hosts:      hosts,
		deps:       deps,
		chains:     make([][][]byte, len(hosts)),
		clean:      make([]core.Observation, len(hosts)),
		final:      make([][]atomic.Pointer[core.Observation], len(deps)),
		engines:    make(map[behaviorSig]func() (*proxyengine.Engine, error)),
		sigObs:     make(map[behaviorSig][]*core.Observation),
	}
	for hi, h := range hosts {
		chain, ok := auth.Chains[h.Name]
		if !ok {
			return nil, fmt.Errorf("study: no authoritative chain for %q", h.Name)
		}
		o, err := core.Observe(h.Name, chain, chain, cl)
		if err != nil {
			return nil, err
		}
		f.chains[hi], f.clean[hi] = chain, o
	}
	for i := range f.final {
		f.final[i] = make([]atomic.Pointer[core.Observation], len(hosts))
	}
	return f, nil
}

// observation returns the measurement observation for a proxied client of
// deployment depIdx probing hostIdx. Whale-whitelisting products pass
// whale hosts through, yielding the clean observation — matching the wire
// interceptor's splice path.
func (f *obsFactory) observation(depIdx, hostIdx int) (core.Observation, error) {
	p := f.deps[depIdx].Product
	if p.WhitelistsWhales && proxyengine.WhaleWhitelist(f.hosts[hostIdx].Name) {
		return f.clean[hostIdx], nil
	}
	slot := &f.final[depIdx][hostIdx]
	if o := slot.Load(); o != nil {
		return *o, nil
	}

	sig := sigOf(p)
	o, err := f.signatureObservation(sig, hostIdx)
	if err != nil {
		return core.Observation{}, err
	}
	if !sig.copiesIssuer {
		// Re-brand the archetype forgery with this product's issuer
		// identity and re-classify — the only per-product difference
		// within a signature class.
		o.IssuerOrg = p.Name
		o.IssuerCN = p.CommonName
		if o.IssuerCN == "" && p.Name != "" {
			o.IssuerCN = p.Name + " CA"
		}
		o.IssuerOU = ""
		res := f.classifier.Classify(o.IssuerOrg, o.IssuerCN, o.IssuerOU)
		o.Category = res.Category
		o.NullIssuer = res.NullIssuer
		o.ProductName = ""
		if res.Product != nil {
			o.ProductName = res.Product.Name
			if o.ProductName == "" {
				o.ProductName = res.Product.CommonName
			}
		}
	}
	slot.Store(&o)
	return o, nil
}

// signatureObservation forges (once) and observes the archetype chain for
// a behavior signature against one host.
func (f *obsFactory) signatureObservation(sig behaviorSig, hostIdx int) (core.Observation, error) {
	f.mu.Lock()
	byHost := f.sigObs[sig]
	if byHost == nil {
		byHost = make([]*core.Observation, len(f.hosts))
		f.sigObs[sig] = byHost
	}
	memo := byHost[hostIdx]
	f.mu.Unlock()
	if memo != nil {
		return *memo, nil
	}
	// Forging and observing run outside the lock; goroutines racing here
	// derive equal values from the identical chain.
	forged, err := f.forge(sig, hostIdx)
	if err != nil {
		return core.Observation{}, err
	}
	o, err := core.Observe(f.hosts[hostIdx].Name, f.chains[hostIdx], forged, f.classifier)
	if err != nil {
		return core.Observation{}, err
	}
	f.mu.Lock()
	byHost[hostIdx] = &o
	f.mu.Unlock()
	return o, nil
}

// forge returns the chain the signature's archetype engine substitutes
// for hostIdx. The engine's ForgeCache single-flights the mint, so every
// caller sees the byte-identical chain.
func (f *obsFactory) forge(sig behaviorSig, hostIdx int) ([][]byte, error) {
	engine, err := f.engine(sig)
	if err != nil {
		return nil, err
	}
	upstream, err := x509util.ParseChain(f.chains[hostIdx])
	if err != nil {
		return nil, err
	}
	decision, err := engine.Decide(f.hosts[hostIdx].Name, upstream, f.chains[hostIdx])
	if err != nil {
		return nil, err
	}
	return decision.ChainDER, nil
}

// engine returns the one archetype proxy engine for sig, creating it on
// first use. Concurrent first callers share one creation and its error.
func (f *obsFactory) engine(sig behaviorSig) (*proxyengine.Engine, error) {
	f.mu.Lock()
	create, ok := f.engines[sig]
	if !ok {
		create = sync.OnceValues(func() (*proxyengine.Engine, error) { return f.newEngine(sig) })
		f.engines[sig] = create
	}
	f.mu.Unlock()
	return create()
}

// newEngine builds the archetype proxy engine for sig.
func (f *obsFactory) newEngine(sig behaviorSig) (*proxyengine.Engine, error) {
	profile := proxyengine.Profile{
		ProductName:        fmt.Sprintf("archetype-%db", sig.keyBits),
		IssuerOrg:          "Archetype Interceptor",
		IssuerCN:           "Archetype Interceptor CA",
		KeyBits:            sig.keyBits,
		SubjectMode:        sig.subjectMode,
		CopyUpstreamIssuer: sig.copiesIssuer,
	}
	if sig.md5 {
		profile.SigAlg = certgen.MD5WithRSA
	}
	if sig.sharedKey {
		profile.SharedKeyName = fmt.Sprintf("shared-%db", sig.keyBits)
	}
	// The forgeries are dated by the study period, not the wall clock, so
	// a world's chains are a function of its key pool alone.
	now := func() time.Time { return certgen.DefaultNotBefore }
	return proxyengine.New(profile, proxyengine.Options{Pool: f.pool, Now: now})
}
