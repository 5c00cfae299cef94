package study

import (
	"fmt"
	"sync"
	"time"

	"tlsfof/internal/adsim"
	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/ingest"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// Config parameterizes one study run.
type Config struct {
	// Study selects the first (January 2014) or second (October 2014)
	// study preset.
	Study clientpop.Study
	// Seed drives all simulation randomness; equal seeds give equal
	// tables.
	Seed uint64
	// Scale shrinks the workload: 1.0 reproduces paper-size campaigns
	// (2.9M / 12.3M tests); 0.01 runs 1% as many impressions. Default 1.0.
	Scale float64
	// RetainProxied caps retained proxied records (0 = unlimited), applied
	// once after store.Merge's canonical sort over the whole run, so the
	// surviving set does not depend on Shards.
	RetainProxied int
	// Pool supplies key material (a fresh pool when nil).
	Pool *certgen.KeyPool
	// Shards > 1 runs the campaigns concurrently; the count is otherwise
	// unused (every campaign fills a private store either way). The name
	// is kept only because bench/study.go sets it; rename in the next
	// benchmark PR.
	Shards int
	// Metrics, when non-nil, exposes the run's live progress on the
	// shared telemetry registry: study_measurements_total counts every
	// test as it is generated, study_campaigns_done_total the campaigns
	// finished. cmd/study's -progress reporter polls these; any registry
	// scrape works.
	Metrics *telemetry.Registry
	// Sink, when non-nil, receives every generated test as a measurement
	// instead of the run's internal store — the cluster path: a route
	// client delivers the stream to the owning reportd nodes and tables
	// are merged cross-node afterwards, so Result.Store comes back nil.
	// It requires Shards <= 1: the external sink owns durability and
	// parallelism, so it sees one in-order stream. Without a Sink, only
	// proxied tests become measurements; clean ones are tallied.
	Sink core.Sink
}

// Result is a completed study run.
type Result struct {
	Config    Config
	Store     *store.DB
	Outcomes  []adsim.Outcome
	Total     adsim.Outcome
	Pop       *clientpop.Population
	Hosts     []hostdb.Host
	Auth      *Authoritative
	Geo       *geo.DB
	Duration  time.Duration
	StartedAt time.Time
	// IngestStats is inert: always nil, no run goes through an ingest
	// pipeline; kept only because bench/study.go reads it (and tolerates
	// nil); remove in the next benchmark PR.
	IngestStats *ingest.Stats
}

// studyEpoch anchors synthetic measurement timestamps: the first study
// began January 6, 2014; the second October 8, 2014.
func studyEpoch(s clientpop.Study) time.Time {
	if s == clientpop.Study1 {
		return time.Date(2014, time.January, 6, 0, 0, 0, 0, time.UTC)
	}
	return time.Date(2014, time.October, 8, 16, 0, 0, 0, time.UTC)
}

// world is the simulated universe a run measures: the client population,
// the probe hosts with their authoritative PKI, and the observation
// factory over both.
type world struct {
	geo     *geo.DB
	pop     *clientpop.Population
	hosts   []hostdb.Host
	auth    *Authoritative
	factory *obsFactory
}

// newWorld applies cfg's defaults in place and builds the world for
// cfg.Study, probing hosts (the study's own probe list when nil).
func newWorld(cfg *Config, hosts []hostdb.Host) (*world, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Study == 0 {
		cfg.Study = clientpop.Study1
	}
	if cfg.Pool == nil {
		cfg.Pool = certgen.NewKeyPool(4, nil)
	}
	gdb := geo.NewDB()
	pop, err := clientpop.New(cfg.Study, gdb)
	if err != nil {
		return nil, err
	}
	if hosts == nil {
		hosts = pop.Hosts()
	}
	auth, err := BuildAuthoritative(hosts, cfg.Pool)
	if err != nil {
		return nil, err
	}
	factory, err := newObsFactory(classify.NewClassifier(), cfg.Pool, hosts, auth, pop.Deployments())
	if err != nil {
		return nil, err
	}
	return &world{geo: gdb, pop: pop, hosts: hosts, auth: auth, factory: factory}, nil
}

// Run executes the configured study in fast mode and returns the populated
// store plus campaign outcomes.
func Run(cfg Config) (*Result, error) {
	if cfg.Sink != nil && cfg.Shards > 1 {
		return nil, fmt.Errorf("study: Config.Sink requires Shards <= 1")
	}
	wall := time.Now()
	w, err := newWorld(&cfg, nil)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(cfg.Seed)

	// Run the ad campaigns.
	var campaigns []adsim.Campaign
	if cfg.Study == clientpop.Study1 {
		campaigns = []adsim.Campaign{adsim.FirstStudyCampaign()}
	} else {
		campaigns = adsim.SecondStudyCampaigns()
	}
	outcomes, total, err := adsim.RunAll(campaigns, r.Split())
	if err != nil {
		return nil, err
	}

	// Pre-split one RNG per campaign in campaign order, so campaigns
	// consume identical random streams inline or concurrently.
	crs := make([]*stats.RNG, len(campaigns))
	for i := range campaigns {
		crs[i] = r.Split()
	}

	// Progress counters live on the caller's registry (nil counters
	// ignore updates).
	var tested, campaignsDone *telemetry.Counter
	if cfg.Metrics != nil {
		tested = cfg.Metrics.Counter("study_measurements_total",
			"certificate tests generated")
		campaignsDone = cfg.Metrics.Counter("study_campaigns_done_total",
			"ad campaigns finished generating")
		cfg.Metrics.GaugeFunc("study_campaigns_total",
			"ad campaigns in this run", func() float64 { return float64(len(campaigns)) })
	}
	gen := newCampaignGen(w, cfg.Scale, studyEpoch(cfg.Study), tested)

	// Every campaign generates into a private store (or all of them into
	// cfg.Sink), and the run's store is always the canonical merge of
	// those, so every output is a function of (study, seed, scale) alone.
	// Shards > 1 decides one thing: campaigns run inline in order, or one
	// goroutine each.
	dbs := make([]*store.DB, len(campaigns))
	runCampaign := func(ci int) error {
		if cfg.Sink == nil {
			dbs[ci] = store.New(0) // uncapped: Merge applies RetainProxied
		}
		err := gen.run(campaigns[ci], outcomes[ci], crs[ci], dbs[ci], cfg.Sink)
		if err == nil {
			campaignsDone.Inc()
		}
		return err
	}
	errs := make([]error, len(campaigns))
	var wg sync.WaitGroup
	for ci := range campaigns {
		if cfg.Shards <= 1 {
			if errs[ci] = runCampaign(ci); errs[ci] != nil {
				break
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = runCampaign(ci)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var db *store.DB
	if cfg.Sink == nil {
		db = store.Merge(cfg.RetainProxied, dbs...)
	}

	res := &Result{
		Config:    cfg,
		Store:     db,
		Outcomes:  outcomes,
		Total:     total,
		Pop:       w.pop,
		Hosts:     w.hosts,
		Auth:      w.auth,
		Geo:       w.geo,
		Duration:  time.Since(wall),
		StartedAt: wall,
	}
	return res, nil
}

// campaignGen generates the tests of campaigns.
type campaignGen struct {
	*world
	scale float64
	epoch time.Time
	// completion is pop.CompletionProb per host position.
	completion []float64
	// tested counts every generated test (nil: not counted).
	tested *telemetry.Counter
}

func newCampaignGen(w *world, scale float64, epoch time.Time, tested *telemetry.Counter) *campaignGen {
	g := &campaignGen{world: w, scale: scale, epoch: epoch, completion: make([]float64, len(w.hosts)), tested: tested}
	for hi, h := range w.hosts {
		g.completion[hi] = w.pop.CompletionProb(h.Name)
	}
	return g
}

// meterEvery is how many impressions a campaign generates between two
// updates of the tested counter.
const meterEvery = 4096

// run synthesizes one campaign's tests from its private RNG stream. With
// a sink, every test reaches it as a measurement, in impression order.
// Without one, the campaign fills db: a proxied test as a measurement, in
// impression order, and a clean one as an increment of its (country,
// host) tally, which reaches db as one AddClean per cell at campaign end.
// Both paths make the same draws, so they fill equal stores.
func (g *campaignGen) run(campaign adsim.Campaign, outcome adsim.Outcome, cr *stats.RNG, db *store.DB, sink core.Sink) error {
	target := -1 // a global campaign samples each impression's country
	if campaign.TargetCountry != "" {
		var ok bool
		if target, ok = g.geo.Index(campaign.TargetCountry); !ok {
			return fmt.Errorf("study: campaign %s: unknown target country %q", campaign.Name, campaign.TargetCountry)
		}
	}
	countries, nHosts := g.geo.Countries(), len(g.hosts)
	var tally []int // [country*nHosts + host]
	if sink == nil {
		sink = db
		tally = make([]int, len(countries)*nHosts)
	}
	n := int(float64(outcome.Impressions) * g.scale)
	window := time.Duration(campaign.Days) * 24 * time.Hour
	var tests uint64
	for i := 0; i < n; i++ {
		country := target
		if country < 0 {
			country = g.pop.SampleGlobalCountry(cr)
		}
		proxied := cr.Bool(g.pop.ProxyRate(country))
		depIdx := -1
		if proxied {
			depIdx, _ = g.pop.SampleDeployment(cr)
		}
		var ip uint32
		ipSet := false
		for hi := range g.hosts {
			if !cr.Bool(g.completion[hi]) {
				continue
			}
			if !ipSet {
				ip = g.pop.ClientIP(cr, country)
				ipSet = true
			}
			tests++
			obs := &g.factory.clean[hi]
			if proxied {
				o, err := g.factory.observation(depIdx, hi)
				if err != nil {
					return fmt.Errorf("study: campaign %s: %w", campaign.Name, err)
				}
				obs = &o
			}
			if tally != nil && !obs.Proxied {
				tally[country*nHosts+hi]++
				continue
			}
			sink.Ingest(core.Measurement{
				Time:         g.epoch.Add(time.Duration(float64(window) * float64(i) / float64(n+1))),
				ClientIP:     ip,
				Country:      countries[country].Code,
				Host:         g.hosts[hi].Name,
				HostCategory: g.hosts[hi].Category,
				Campaign:     campaign.Name,
				Obs:          *obs,
			})
		}
		if i%meterEvery == meterEvery-1 {
			g.tested.Add(tests)
			tests = 0
		}
	}
	g.tested.Add(tests)
	for cell, k := range tally {
		if k > 0 {
			db.AddClean(campaign.Name, countries[cell/nHosts].Code, g.hosts[cell%nHosts].Category, k)
		}
	}
	return nil
}

// BaselineResult summarizes a Huang-style single-site measurement.
type BaselineResult struct {
	Host    string
	Tested  int
	Proxied int
}

// Rate is the observed interception rate.
func (b BaselineResult) Rate() float64 {
	if b.Tested == 0 {
		return 0
	}
	return float64(b.Proxied) / float64(b.Tested)
}

// RunHuangBaseline reproduces the comparison with Huang et al. (§8): the
// same client population measured only at a whale-class site
// (www.facebook.com). Whale-whitelisting proxies pass the connection
// through untouched, so the observed rate drops to roughly half of the
// broad-measurement 0.41% — Huang's 0.20%.
func RunHuangBaseline(cfg Config) (*BaselineResult, error) {
	const whale = "www.facebook.com"
	w, err := newWorld(&cfg, []hostdb.Host{{Name: whale, Category: hostdb.Popular, AlexaRank: 2}})
	if err != nil {
		return nil, err
	}
	pop := w.pop
	r := stats.NewRNG(cfg.Seed + 0x9e3779b9)

	impressions := clientpop.Study1Impressions
	if cfg.Study == clientpop.Study2 {
		impressions = clientpop.Study2Impressions
	}
	n := int(float64(impressions) * cfg.Scale)
	res := &BaselineResult{Host: whale}
	for i := 0; i < n; i++ {
		country := pop.SampleGlobalCountry(r)
		if !r.Bool(clientpop.CompletionRate1) {
			continue
		}
		res.Tested++
		if !r.Bool(pop.ProxyRate(country)) {
			continue
		}
		depIdx, _ := pop.SampleDeployment(r)
		obs, err := w.factory.observation(depIdx, 0)
		if err != nil {
			return nil, err
		}
		if obs.Proxied {
			res.Proxied++
		}
	}
	return res, nil
}
