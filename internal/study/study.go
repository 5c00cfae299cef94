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
	// measurement as it reaches the sink, study_campaigns_done_total the
	// campaigns finished. cmd/study's -progress reporter polls these;
	// any registry scrape works. Nil keeps the hot path counter-free.
	Metrics *telemetry.Registry
	// Sink, when non-nil, receives every generated measurement instead
	// of the run's internal store — the cluster path: a route client
	// delivers the stream to the owning reportd nodes and tables are
	// merged cross-node afterwards, so Result.Store comes back nil.
	// It requires Shards <= 1: the external sink owns durability and
	// parallelism, so it sees one in-order stream.
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

// meterTee counts measurements into the telemetry registry on their way
// to the real sink. Counter.Add is one atomic add, so the tee is safe
// from concurrent campaign goroutines and costs no allocations.
type meterTee struct {
	n    *telemetry.Counter
	next core.Sink
}

func (t meterTee) Ingest(m core.Measurement) {
	t.n.Inc()
	t.next.Ingest(m)
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

	gen := newCampaignGen(w, cfg.Scale, studyEpoch(cfg.Study))

	// Progress counters live on the caller's registry; counting happens
	// in a sink tee in front of every campaign's sink.
	var meter, campaignsDone *telemetry.Counter
	if cfg.Metrics != nil {
		meter = cfg.Metrics.Counter("study_measurements_total",
			"measurements generated and handed to the sink")
		campaignsDone = cfg.Metrics.Counter("study_campaigns_done_total",
			"ad campaigns finished generating")
		cfg.Metrics.GaugeFunc("study_campaigns_total",
			"ad campaigns in this run", func() float64 { return float64(len(campaigns)) })
	}
	// wrap interposes the progress tee between a campaign generator and
	// its sink; without Metrics it is the identity.
	wrap := func(sink core.Sink) core.Sink {
		if meter != nil {
			sink = meterTee{n: meter, next: sink}
		}
		return sink
	}

	// Every campaign generates into a private store (or all of them into
	// cfg.Sink), and the run's store is always the canonical merge of
	// those, so every output is a function of (study, seed, scale) alone.
	// Shards > 1 decides one thing: campaigns run inline in order, or one
	// goroutine each.
	dbs := make([]*store.DB, len(campaigns))
	runCampaign := func(ci int) error {
		sink := cfg.Sink
		if sink == nil {
			dbs[ci] = store.New(0) // uncapped: Merge applies RetainProxied
			sink = dbs[ci]
		}
		err := gen.run(campaigns[ci], outcomes[ci], crs[ci], wrap(sink))
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

// campaignGen generates the measurement stream for campaigns; the sink is
// the campaign's private store or Config.Sink.
type campaignGen struct {
	*world
	scale float64
	epoch time.Time
	// completion is pop.CompletionProb per host position.
	completion []float64
}

func newCampaignGen(w *world, scale float64, epoch time.Time) *campaignGen {
	g := &campaignGen{world: w, scale: scale, epoch: epoch, completion: make([]float64, len(w.hosts))}
	for hi, h := range w.hosts {
		g.completion[hi] = w.pop.CompletionProb(h.Name)
	}
	return g
}

// run synthesizes one campaign's measurements from its private RNG stream
// and delivers them to sink in impression order.
func (g *campaignGen) run(campaign adsim.Campaign, outcome adsim.Outcome, cr *stats.RNG, sink core.Sink) error {
	n := int(float64(outcome.Impressions) * g.scale)
	window := time.Duration(campaign.Days) * 24 * time.Hour
	for i := 0; i < n; i++ {
		country := campaign.TargetCountry
		if country == "" {
			country = g.pop.SampleGlobalCountry(cr)
		}
		proxied := cr.Bool(g.pop.ProxyRate(country))
		depIdx := -1
		if proxied {
			depIdx, _ = g.pop.SampleDeployment(cr)
		}
		var ip uint32
		ipSet := false
		var when time.Time
		for hi := range g.hosts {
			if !cr.Bool(g.completion[hi]) {
				continue
			}
			if !ipSet {
				ip = g.pop.ClientIP(cr, country)
				ipSet = true
				when = g.epoch.Add(time.Duration(float64(window) * float64(i) / float64(n+1)))
			}
			obs := g.factory.clean[hi]
			if proxied {
				var err error
				if obs, err = g.factory.observation(depIdx, hi); err != nil {
					return fmt.Errorf("study: campaign %s: %w", campaign.Name, err)
				}
			}
			sink.Ingest(core.Measurement{
				Time:         when,
				ClientIP:     ip,
				Country:      country,
				Host:         g.hosts[hi].Name,
				HostCategory: g.hosts[hi].Category,
				Campaign:     campaign.Name,
				Obs:          obs,
			})
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
