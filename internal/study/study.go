package study

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	// (2.9M / 12.3M tests); 0.01 runs 1% as many impressions. 0 means
	// 1.0; a negative, NaN or infinite scale is an error.
	Scale float64
	// RetainProxied caps the proxied records the run's store returns from
	// ProxiedRecords and its exports (0 = unlimited), applied after
	// store.Merge's canonical sort over the whole run, so the exported
	// set does not depend on Shards. Every table still counts them all.
	RetainProxied int
	// Pool supplies key material (a fresh pool when nil). The first run
	// over a pool builds its world — population, hosts, authoritative PKI,
	// forged archetype chains — and later runs over it reuse that world
	// (a few pools' worlds are kept). A nil pool's world is not kept.
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
	Config   Config
	Store    *store.DB
	Outcomes []adsim.Outcome
	Total    adsim.Outcome
	// Pop, Hosts, Auth and Geo are the world every run over Config.Pool
	// shares: read them, never mutate them.
	Pop   *clientpop.Population
	Hosts []hostdb.Host
	Auth  *Authoritative
	Geo   *geo.DB
	// Duration is the run's wall time; only a pool's first run includes
	// building the world.
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
// factory over both. It is read-only once built (the factory's lazy fills
// are safe for concurrent use), so runs over one pool share it.
type world struct {
	geo     *geo.DB
	pop     *clientpop.Population
	hosts   []hostdb.Host
	auth    *Authoritative
	factory *obsFactory
	// proxy is pop.ProxyRate per country position and completion
	// pop.CompletionProb per host position, each resolved once into the
	// coin every impression flips.
	proxy      []stats.Chance
	completion []stats.Chance
}

// maxHosts bounds a world's probe list: an impression flips every
// host's completion coin into one 64-bit mask (stats.RNG.Coins).
const maxHosts = 64

// newWorld builds the world for study over pool, probing hosts (the
// study's own probe list when nil).
func newWorld(study clientpop.Study, pool *certgen.KeyPool, hosts []hostdb.Host) (*world, error) {
	gdb := geo.NewDB()
	pop, err := clientpop.New(study, gdb)
	if err != nil {
		return nil, err
	}
	if hosts == nil {
		hosts = pop.Hosts()
	}
	if len(hosts) > maxHosts {
		return nil, fmt.Errorf("study: %d probe hosts, more than the %d an impression's completion coins cover", len(hosts), maxHosts)
	}
	auth, err := BuildAuthoritative(hosts, pool)
	if err != nil {
		return nil, err
	}
	factory, err := newObsFactory(classify.NewClassifier(), pool, hosts, auth, pop.Deployments())
	if err != nil {
		return nil, err
	}
	w := &world{geo: gdb, pop: pop, hosts: hosts, auth: auth, factory: factory,
		proxy: make([]stats.Chance, len(gdb.Countries())), completion: make([]stats.Chance, len(hosts))}
	for ci := range w.proxy {
		w.proxy[ci] = stats.NewChance(pop.ProxyRate(ci))
	}
	for hi, h := range hosts {
		w.completion[hi] = stats.NewChance(pop.CompletionProb(h.Name))
	}
	return w, nil
}

// maxWorlds bounds the world memo: a world pins its pool and every chain
// signed with it, and the callers that reuse a pool hold one or two.
const maxWorlds = 4

// worldKey names a memoized world; hosts prints the probe list (nil: the
// study's own).
type worldKey struct {
	pool  *certgen.KeyPool
	study clientpop.Study
	hosts string
}

// worlds is the memo, least recently used slot first. A slot's get
// builds its world once, for whichever caller asks first; a failed build
// is kept too, since the same pool and study fail the same way again.
var worlds struct {
	sync.Mutex
	slots []worldSlot
}

type worldSlot struct {
	key worldKey
	get func() (*world, error)
}

// worldFor applies cfg's defaults in place and returns the world for
// cfg.Study probing hosts (the study's own list when nil): built by the
// first run over cfg.Pool and shared by later ones. A nil pool becomes a
// fresh one no later call can name, so its world is not kept.
func worldFor(cfg *Config, hosts []hostdb.Host) (*world, error) {
	if !(cfg.Scale >= 0) || math.IsInf(cfg.Scale, 1) {
		return nil, fmt.Errorf("study: scale %v: want a finite number >= 0 (0 means 1.0)", cfg.Scale)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Study == 0 {
		cfg.Study = clientpop.Study1
	}
	if cfg.Pool == nil {
		cfg.Pool = certgen.NewKeyPool(4, nil)
		return newWorld(cfg.Study, cfg.Pool, hosts)
	}
	key := worldKey{cfg.Pool, cfg.Study, fmt.Sprint(hosts)}
	worlds.Lock()
	var s worldSlot
	if i := slices.IndexFunc(worlds.slots, func(s worldSlot) bool { return s.key == key }); i >= 0 {
		s = worlds.slots[i]
		worlds.slots = slices.Delete(worlds.slots, i, i+1)
	} else {
		s = worldSlot{key, sync.OnceValues(func() (*world, error) { return newWorld(key.study, key.pool, hosts) })}
		if len(worlds.slots) == maxWorlds {
			worlds.slots = slices.Delete(worlds.slots, 0, 1)
		}
	}
	worlds.slots = append(worlds.slots, s)
	worlds.Unlock()
	return s.get()
}

// Run executes the configured study in fast mode and returns the populated
// store plus campaign outcomes.
func Run(cfg Config) (*Result, error) {
	if cfg.Sink != nil && cfg.Shards > 1 {
		return nil, fmt.Errorf("study: Config.Sink requires Shards <= 1")
	}
	wall := time.Now()
	w, err := worldFor(&cfg, nil)
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
	gen := &campaignGen{world: w, scale: cfg.Scale, epoch: studyEpoch(cfg.Study), tested: tested}

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
	// tested counts every generated test (nil: not counted).
	tested *telemetry.Counter
}

// meterEvery is how many impressions a campaign generates between two
// updates of the tested counter.
const meterEvery = 4096

// run synthesizes one campaign's tests from its private RNG stream. With
// a sink, every test reaches it as a measurement, in impression order.
// Without one, the campaign fills one batch: a proxied test as a row, in
// impression order, and a clean one as an increment of its (country,
// host) tally, which becomes one weighted row per nonzero cell at
// campaign end. db takes the batch with one AddBatch. Both paths make the
// same draws, so they fill equal stores.
func (g *campaignGen) run(campaign adsim.Campaign, outcome adsim.Outcome, cr *stats.RNG, db *store.DB, sink core.Sink) error {
	target := -1 // a global campaign samples each impression's country
	if campaign.TargetCountry != "" {
		var ok bool
		if target, ok = g.geo.Index(campaign.TargetCountry); !ok {
			return fmt.Errorf("study: campaign %s: unknown target country %q", campaign.Name, campaign.TargetCountry)
		}
	}
	countries, nHosts := g.geo.Countries(), len(g.hosts)
	var batch *core.Batch
	var tally []int // [country*nHosts + host]
	if sink == nil {
		b, ok := campaignBatches.LoadAndDelete(campaign.Name)
		if !ok {
			b = new(core.Batch)
		}
		batch = b.(*core.Batch)
		batch.Reset(0, 0)
		defer campaignBatches.Store(campaign.Name, batch)
		tally = make([]int, len(countries)*nHosts)
		// Emitting through sink on both paths keeps one emit site in the
		// per-test loop: a second emit branch there cost about 5% of a
		// sequential study 2 run's CPU.
		sink = core.SinkFunc(func(m core.Measurement) { batch.Add(&m) })
	}
	n := int(float64(outcome.Impressions) * g.scale)
	window := time.Duration(campaign.Days) * 24 * time.Hour
	var tests uint64
	completion := g.completion
	for i := 0; i < n; i++ {
		if i%meterEvery == 0 {
			g.tested.Add(tests)
			tests = 0
		}
		country := target
		if country < 0 {
			country = g.pop.SampleGlobalCountry(cr)
		}
		proxied := cr.Chance(g.proxy[country])
		depIdx := -1
		if proxied {
			depIdx, _ = g.pop.SampleDeployment(cr)
		}
		// The client's address is drawn right after the first host that
		// completes, before the other hosts' coins.
		first := cr.FirstChance(completion)
		if first == nHosts {
			continue
		}
		ip := g.pop.ClientIP(cr, country)
		done := 1<<first | cr.Coins(completion[first+1:])<<(first+1) // bit hi: host hi completed
		tests += uint64(bits.OnesCount64(done))
		for ; done != 0; done &= done - 1 {
			hi := bits.TrailingZeros64(done)
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
	}
	g.tested.Add(tests)
	if tally == nil {
		return nil
	}
	for cell, k := range tally {
		if k > 0 {
			hi := cell % nHosts
			batch.AddN(&core.Measurement{
				Country:      countries[cell/nHosts].Code,
				Host:         g.hosts[hi].Name,
				HostCategory: g.hosts[hi].Category,
				Campaign:     campaign.Name,
				Obs:          g.factory.clean[hi],
			}, uint32(k))
		}
	}
	db.AddBatch(batch)
	return nil
}

// campaignBatches keeps each campaign's batch between runs, by campaign
// name, so a warm run fills the tables and rows the campaign's last run
// grew instead of growing new ones. It is not a sync.Pool: concurrent
// campaigns would take each other's batches, and a Get often misses an
// item another P put.
var campaignBatches sync.Map // campaign name → *core.Batch

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
	w, err := worldFor(&cfg, []hostdb.Host{{Name: whale, Category: hostdb.Popular, AlexaRank: 2}})
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
	completes := stats.NewChance(clientpop.CompletionRate1)
	res := &BaselineResult{Host: whale}
	for i := 0; i < n; i++ {
		country := pop.SampleGlobalCountry(r)
		if !r.Chance(completes) {
			continue
		}
		res.Tested++
		if !r.Chance(w.proxy[country]) {
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
