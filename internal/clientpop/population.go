package clientpop

import (
	"fmt"

	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

// Study selects which measurement study's population to model.
type Study int

// The two AdWords studies.
const (
	Study1 Study = 1 // January 2014, single host
	Study2 Study = 2 // October 2014, 18 hosts, country targeting
)

// Population binds the calibration tables to samplers: country of the next
// global-campaign impression, proxy presence per country, product behind a
// proxied client, and per-host test completion. A country is its position
// in Geo.Countries() throughout.
type Population struct {
	Study Study
	Geo   *geo.DB

	proxyRates     []float64 // per country
	countrySampler *stats.Categorical

	deployments   []Deployment
	deploySampler *stats.Categorical

	completion map[string]float64
}

// targetedImpressions2 maps the five study-2 campaign countries to their
// Table 2 impression counts.
var targetedImpressions2 = map[string]int{
	"CN": Study2CNImpr,
	"EG": Study2EGImpr,
	"PK": Study2PKImpr,
	"RU": Study2RUImpr,
	"UA": Study2UAImpr,
}

// New builds the population for a study over the given geo registry.
func New(study Study, gdb *geo.DB) (*Population, error) {
	if study != Study1 && study != Study2 {
		return nil, fmt.Errorf("clientpop: unknown study %d", study)
	}
	p := &Population{Study: study, Geo: gdb}
	calib := make(map[string]CountryCalib, len(Calibration))
	for _, c := range Calibration {
		calib[c.Code] = c
	}

	// Global-campaign country mix: listed countries carry their table
	// weight (for study 2, net of what the targeted campaigns deliver);
	// unlisted countries share the "Other" residual in proportion to
	// their registry footprint. Proxy rates follow the same split:
	// listed countries their table rate, unlisted ones the residual's.
	var weights []float64
	otherTested, otherRate := float64(Other1Tested), OtherRate1
	if study == Study2 {
		otherTested, otherRate = float64(Other2Tested), OtherRate2
	}
	var otherBlocks int
	for _, c := range gdb.Countries() {
		if _, listed := calib[c.Code]; !listed {
			otherBlocks += c.Blocks
		}
	}
	for _, c := range gdb.Countries() {
		cal, listed := calib[c.Code]
		var w, rate float64
		switch {
		case listed && study == Study1:
			w, rate = float64(cal.Tested1), cal.Rate1()
		case listed && study == Study2:
			w, rate = float64(cal.Tested2), cal.Rate2()
			if impr, targeted := targetedImpressions2[c.Code]; targeted {
				w -= float64(impr) * TestsPerImpression2
				if w < 0 {
					w = 0
				}
			}
		default:
			w, rate = otherTested*float64(c.Blocks)/float64(otherBlocks), otherRate
		}
		p.proxyRates = append(p.proxyRates, rate)
		weights = append(weights, w)
	}
	sampler, err := stats.NewCategorical(weights)
	if err != nil {
		return nil, fmt.Errorf("clientpop: country sampler: %w", err)
	}
	p.countrySampler = sampler

	// Product market shares.
	if study == Study1 {
		p.deployments = Study1Deployments()
	} else {
		p.deployments = Study2Deployments()
	}
	dw := make([]float64, len(p.deployments))
	for i, d := range p.deployments {
		dw[i] = d.Weight
	}
	p.deploySampler, err = stats.NewCategorical(dw)
	if err != nil {
		return nil, fmt.Errorf("clientpop: deployment sampler: %w", err)
	}

	p.completion = completionTable(study)
	return p, nil
}

// completionTable derives per-host test-completion probabilities. Study 1
// probed one host with the §4.1 completion rate. Study 2's per-host values
// are derived from Table 8's per-type totals over the study's impressions
// ("not all clients served with our ad were able to successfully perform
// TLS handshakes with all hosts", §4.2).
func completionTable(study Study) map[string]float64 {
	m := make(map[string]float64)
	if study == Study1 {
		m[hostdb.AuthorsHost.Name] = CompletionRate1
		return m
	}
	const impressions = float64(Study2Impressions)
	perType := map[hostdb.Category]float64{
		hostdb.Authors:      2353717 / 1 / impressions,
		hostdb.Popular:      5132342 / 6 / impressions,
		hostdb.Business:     1787875 / 5 / impressions,
		hostdb.Pornographic: 3004996 / 5 / impressions,
	}
	for _, h := range hostdb.SecondStudyHosts() {
		m[h.Name] = perType[h.Category]
	}
	return m
}

// SampleGlobalCountry draws the country of one global-campaign impression,
// as its position in Geo.Countries().
func (p *Population) SampleGlobalCountry(r *stats.RNG) int {
	return p.countrySampler.Sample(r)
}

// ProxyRate returns the probability that a client in the country at
// position country in Geo.Countries() sits behind a TLS proxy.
func (p *Population) ProxyRate(country int) float64 {
	return p.proxyRates[country]
}

// SampleDeployment draws which product proxies a proxied client, returning
// its index and record.
func (p *Population) SampleDeployment(r *stats.RNG) (int, *Deployment) {
	i := p.deploySampler.Sample(r)
	return i, &p.deployments[i]
}

// Deployments exposes the study's full deployment table.
func (p *Population) Deployments() []Deployment { return p.deployments }

// CompletionProb returns the probability that a served client completes a
// certificate test against host.
func (p *Population) CompletionProb(host string) float64 {
	return p.completion[host]
}

// Hosts returns the study's probe list.
func (p *Population) Hosts() []hostdb.Host {
	if p.Study == Study1 {
		return hostdb.FirstStudyHosts()
	}
	return hostdb.SecondStudyHosts()
}

// ClientIP draws an address for a client in the country at position
// country in Geo.Countries().
func (p *Population) ClientIP(r *stats.RNG, country int) uint32 {
	return p.Geo.RandomIPUint32(r, country)
}
