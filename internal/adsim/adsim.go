// Package adsim simulates the Google AdWords campaigns that deployed the
// measurement tool (§4). The real ad auction is out of scope (DESIGN.md
// §2); what the pipeline needs are its observable outputs — impressions
// served per campaign per day, clicks, and spend — which this package
// models with a CPM bidding loop calibrated to the paper's published
// campaign statistics (§4.1 and Table 2).
package adsim

import (
	"fmt"
	"sort"

	"tlsfof/internal/stats"
)

// Campaign describes one ad campaign as configured in AdWords.
type Campaign struct {
	// Name labels the campaign ("Global", "China", …).
	Name string
	// TargetCountry is the ISO code for country-targeted campaigns, ""
	// for worldwide serving (§4.2: campaigns targeted CN, EG, PK, RU, UA
	// plus one global).
	TargetCountry string
	// DailyBudgetCents caps spend per day ($500/day global, $50/day
	// per-country in study 2).
	DailyBudgetCents int
	// MaxCPMCents is the maximum cost-per-mille bid ($10 in both
	// studies).
	MaxCPMCents int
	// Days the campaign runs (7 for study 2; study 1 ran 24 with varied
	// budget).
	Days int
	// Keywords steer placement; the simulator converts them to a demand
	// multiplier via the trending model below.
	Keywords []string

	// EffectiveCPMCents is the market clearing price per thousand
	// impressions for this campaign's inventory. This is the calibrated
	// quantity (Table 2 cost/impressions); 0 uses DefaultEffectiveCPM.
	EffectiveCPMCents float64
	// CTR is the click-through rate (clicks are incidental to the
	// measurement — "not required to complete the measurement", §4.1).
	CTR float64
}

// DefaultEffectiveCPM is a mid-market CPM in cents per mille.
const DefaultEffectiveCPM = 120.0

// Outcome is what a finished campaign reports — one row of Table 2.
type Outcome struct {
	Campaign    string
	Country     string // "" for global
	Impressions int
	Clicks      int
	CostCents   int
}

// CostDollars renders the spend as dollars.
func (o Outcome) CostDollars() float64 { return float64(o.CostCents) / 100 }

// Run simulates the campaign day by day: each day the ad serves until the
// daily budget is exhausted at the effective CPM (jittered ±10% per day to
// model auction pressure), spread uniformly through the day as the authors
// configured ("We set our ad to show uniformly throughout the day", §4).
func Run(c Campaign, r *stats.RNG) (Outcome, error) {
	if c.Days <= 0 {
		return Outcome{}, fmt.Errorf("adsim: campaign %q has no duration", c.Name)
	}
	if c.DailyBudgetCents <= 0 {
		return Outcome{}, fmt.Errorf("adsim: campaign %q has no budget", c.Name)
	}
	ecpm := c.EffectiveCPMCents
	if ecpm <= 0 {
		ecpm = DefaultEffectiveCPM
	}
	if c.MaxCPMCents > 0 && ecpm > float64(c.MaxCPMCents) {
		// The bid caps the clearing price; both sides are cents/mille.
		ecpm = float64(c.MaxCPMCents)
	}
	demand := KeywordDemand(c.Keywords)

	out := Outcome{Campaign: c.Name, Country: c.TargetCountry}
	for day := 0; day < c.Days; day++ {
		// Daily clearing price jitter: auctions are not static.
		dayCPM := ecpm * (0.9 + 0.2*r.Float64())
		// Demand bounds how many impressions the keywords can attract in
		// a day regardless of budget.
		maxServable := int(demand * 3_000_000)
		impressions := int(float64(c.DailyBudgetCents) / dayCPM * 1000)
		if impressions > maxServable {
			impressions = maxServable
		}
		cost := int(float64(impressions) * dayCPM / 1000)
		out.Impressions += impressions
		out.CostCents += cost
		out.Clicks += stats.Binomial(r, impressions, c.CTR)
	}
	return out, nil
}

// RunAll executes several campaigns against one RNG, returning outcomes in
// input order plus a total row (as Table 2 prints).
func RunAll(campaigns []Campaign, r *stats.RNG) ([]Outcome, Outcome, error) {
	outs := make([]Outcome, 0, len(campaigns))
	var total Outcome
	total.Campaign = "Total"
	for _, c := range campaigns {
		o, err := Run(c, r.Split())
		if err != nil {
			return nil, Outcome{}, err
		}
		outs = append(outs, o)
		total.Impressions += o.Impressions
		total.Clicks += o.Clicks
		total.CostCents += o.CostCents
	}
	return outs, total, nil
}

// ---- Keyword trending model ----

// Study1Keywords and Study2Keywords are the exact keyword lists from §4.1
// and §4.2.
var (
	Study1Keywords = []string{
		"Nelson Mandela", "Sports", "Basketball", "NSA", "Internet",
		"Freedom", "Paul Walker", "Security", "LeBron James", "Haiyan",
		"Snowden", "PlayStation 4", "Miley Cyrus", "Xbox One", "iPhone 5s",
	}
	Study2Keywords = []string{
		"Nelson Mandela", "Sports", "Internet Security", "Basketball",
		"Football", "Freedom", "NCAA", "Paul Walker", "Boston Marathon",
		"Election", "North Korea", "Harlem Shake", "PlayStation 4",
		"Royal Baby", "Cory Monteith", "iPhone 6", "iPhone 5s",
		"Samsung Galaxy S4", "iPhone 6 Plus", "TLS Proxies",
	}
)

// KeywordDemand converts a keyword list to a placement-demand multiplier
// in [0.25, 2.0]. The model is a deterministic hash-based "trending score"
// per keyword (a stand-in for Google Trends, which the authors consulted,
// §4): more and hotter keywords attract more inventory, with diminishing
// returns.
func KeywordDemand(keywords []string) float64 {
	if len(keywords) == 0 {
		return 0.25
	}
	var total float64
	for _, kw := range keywords {
		total += keywordHeat(kw)
	}
	// Diminishing returns: demand grows with the square root of summed
	// heat.
	demand := 0.25 + 0.35*sqrt(total)
	if demand > 2.0 {
		demand = 2.0
	}
	return demand
}

// keywordHeat is a stable per-keyword score in (0, 1].
func keywordHeat(kw string) float64 {
	return float64(stats.FNV1a(kw)%1000)/1000*0.9 + 0.1
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// ---- Study presets, calibrated to §4.1 and Table 2 ----

// FirstStudyCampaign returns the January 2014 campaign: 24 days, budget
// varied then fixed at $500/day, $4,911.97 total spend, 4.63M impressions.
func FirstStudyCampaign() Campaign {
	return Campaign{
		Name:             "Global-2014-01",
		DailyBudgetCents: 20466, // ≈ $4,911.97 over 24 days
		MaxCPMCents:      1000,  // $10 max CPM
		Days:             24,
		Keywords:         Study1Keywords,
		// $4,911.97 / 4,634,386 impressions ≈ 106.0 ¢/mille.
		EffectiveCPMCents: 106.0,
		CTR:               float64(3897) / float64(4634386),
	}
}

// SecondStudyCampaigns returns the October 2014 campaign set: one global
// at $500/day and five country-targeted at $50/day, 7 days each, with
// per-campaign effective CPMs and CTRs derived from Table 2.
func SecondStudyCampaigns() []Campaign {
	mk := func(name, country string, budget int, impressions, clicks, costCents int) Campaign {
		return Campaign{
			Name:              name,
			TargetCountry:     country,
			DailyBudgetCents:  budget,
			MaxCPMCents:       1000,
			Days:              7,
			Keywords:          Study2Keywords,
			EffectiveCPMCents: float64(costCents) / float64(impressions) * 1000,
			CTR:               float64(clicks) / float64(impressions),
		}
	}
	return []Campaign{
		mk("Global", "", 57454, 3285598, 5424, 402178),
		mk("China", "CN", 5735, 689233, 652, 40141),
		mk("Egypt", "EG", 5402, 232218, 1777, 37817),
		mk("Pakistan", "PK", 5404, 183849, 2536, 37826),
		mk("Russia", "RU", 5734, 230474, 203, 40136),
		mk("Ukraine", "UA", 5581, 364868, 294, 39069),
	}
}

// SortOutcomes orders outcomes as Table 2 lists them: Global first, then
// country campaigns alphabetically by name.
func SortOutcomes(outs []Outcome) {
	sort.SliceStable(outs, func(i, j int) bool {
		if (outs[i].Country == "") != (outs[j].Country == "") {
			return outs[i].Country == ""
		}
		return outs[i].Campaign < outs[j].Campaign
	})
}
