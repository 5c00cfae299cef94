// Package hostdb models the host universe the studies probed.
//
// The first study probed only the authors' own server
// (tlsresearch.byu.edu). The second study probed seventeen additional
// hosts — the highest-Alexa-ranked sites in each of three categories that
// served permissive Flash socket policy files (Table 1) — because Flash's
// security model only allowed socket connections to such hosts (§4.2).
//
// The package also implements the discovery pipeline behind Table 1: a
// synthetic Alexa-style top-million list and a policy-file scan that
// selects probe-eligible hosts.
package hostdb

import (
	"fmt"

	"tlsfof/internal/policy"
	"tlsfof/internal/stats"
)

// Category is the paper's host typing (§4.2, Table 8).
type Category int

// Host categories from §4.2.
const (
	// Popular: Alexa top 25,000 sites.
	Popular Category = iota
	// Business: commercial sites unlikely to be blocked at workplaces.
	Business
	// Pornographic: sites expected to be blocked by parental filters.
	Pornographic
	// Authors: the single site the authors operate.
	Authors
)

// String names the category as Table 8 does.
func (c Category) String() string {
	switch c {
	case Popular:
		return "Popular"
	case Business:
		return "Business"
	case Pornographic:
		return "Pornographic"
	case Authors:
		return "Authors'"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// AllCategories in Table 8 row order.
var AllCategories = []Category{Popular, Business, Pornographic, Authors}

// Host is one probe target.
type Host struct {
	Name     string
	Category Category
	// AlexaRank is the site's popularity rank (0 for the authors' site).
	AlexaRank int
}

// AuthorsHost is the measurement site both studies used.
var AuthorsHost = Host{Name: "tlsresearch.byu.edu", Category: Authors}

// Table1Hosts is the exact second-study probe list (Table 1), ranks
// invented but ordered to respect "highest ranked such websites for each
// type".
var Table1Hosts = []Host{
	{"qq.com", Popular, 7},
	{"promodj.com", Popular, 4120},
	{"idwebgame.com", Popular, 8211},
	{"parsnews.com", Popular, 11424},
	{"idgameland.com", Popular, 16783},
	{"vcp.ir", Popular, 21977},
	{"airdroid.com", Business, 26312},
	{"webhost1.ru", Business, 31455},
	{"restaurantesecia.com.br", Business, 40211},
	{"speedtest.net.in", Business, 47632},
	{"iprank.ir", Business, 55120},
	{"pornclipstv.com", Pornographic, 61234},
	{"porno-be.com", Pornographic, 72345},
	{"pornbasetube.com", Pornographic, 81456},
	{"pornozip.net", Pornographic, 90567},
	{"pornorasskazov.net", Pornographic, 99678},
}

// SecondStudyHosts is the full 17-host probe list: Table 1 plus the
// authors' site, authors' site first (the tool "first test[s] the
// connection to the authors' website", §4.2).
func SecondStudyHosts() []Host {
	hosts := make([]Host, 0, len(Table1Hosts)+1)
	hosts = append(hosts, AuthorsHost)
	hosts = append(hosts, Table1Hosts...)
	return hosts
}

// FirstStudyHosts is the single-host probe list of the first study.
func FirstStudyHosts() []Host { return []Host{AuthorsHost} }

// HostByName finds a host in the second-study list.
func HostByName(name string) (Host, bool) {
	if name == AuthorsHost.Name {
		return AuthorsHost, true
	}
	for _, h := range Table1Hosts {
		if h.Name == name {
			return h, true
		}
	}
	return Host{}, false
}

// ---- Alexa scan simulation (the pipeline behind Table 1) ----

// ScanSite is one site in the synthetic top-million list.
type ScanSite struct {
	Name     string
	Rank     int
	Category Category
	// Policy is the socket policy the site serves; nil when it serves
	// none (the overwhelmingly common case).
	Policy *policy.File
}

// ScanConfig parameterizes the synthetic Alexa universe.
type ScanConfig struct {
	// Sites is the universe size (default 1,000,000 — "the entirety of
	// the Alexa top 1 million websites").
	Sites int
	// PolicyRate is the fraction of sites serving any socket policy file
	// (default 0.004; permissive files were rare, which is why Table 1's
	// "popular" sites sit far below Facebook's rank).
	PolicyRate float64
	// PermissiveShare is the fraction of served policies that permit
	// port 443 from any domain (default 0.5).
	PermissiveShare float64
	// PornShare and BusinessShare partition the universe by category
	// (defaults 0.04 and 0.25; the rest are Popular-class).
	PornShare     float64
	BusinessShare float64
}

func (c *ScanConfig) fill() {
	if c.Sites == 0 {
		c.Sites = 1_000_000
	}
	if c.PolicyRate == 0 {
		c.PolicyRate = 0.004
	}
	if c.PermissiveShare == 0 {
		c.PermissiveShare = 0.5
	}
	if c.PornShare == 0 {
		c.PornShare = 0.04
	}
	if c.BusinessShare == 0 {
		c.BusinessShare = 0.25
	}
}

// Scan synthesizes the top-million universe and returns the probe-eligible
// hosts per category, highest-ranked first — the selection procedure of
// §4.2. wantPerCategory bounds each category's result (Table 1 used 6
// popular, 5 business, 5 pornographic).
func Scan(cfg ScanConfig, r *stats.RNG, wantPerCategory map[Category]int) map[Category][]ScanSite {
	cfg.fill()
	out := make(map[Category][]ScanSite)
	need := func(cat Category) bool {
		want, ok := wantPerCategory[cat]
		return !ok || len(out[cat]) < want
	}
	for rank := 1; rank <= cfg.Sites; rank++ {
		// Category assignment.
		var cat Category
		roll := r.Float64()
		switch {
		case roll < cfg.PornShare:
			cat = Pornographic
		case roll < cfg.PornShare+cfg.BusinessShare:
			cat = Business
		default:
			cat = Popular
		}
		// Popular means top 25,000 in the paper's sense.
		if cat == Popular && rank > 25000 {
			cat = Business
		}
		if !r.Bool(cfg.PolicyRate) {
			continue
		}
		site := ScanSite{
			Name:     fmt.Sprintf("site-%06d.example", rank),
			Rank:     rank,
			Category: cat,
		}
		if r.Bool(cfg.PermissiveShare) {
			site.Policy = policy.PermissivePort443
		} else {
			site.Policy = &policy.File{Rules: []policy.Rule{{Domain: "self.example", AllPorts: true}}}
		}
		if site.Policy != nil && site.Policy.PermissiveFor(443) && need(cat) {
			out[cat] = append(out[cat], site)
		}
		// Early exit once every requested category is filled.
		done := true
		for cat, want := range wantPerCategory {
			if len(out[cat]) < want {
				done = false
				break
			}
		}
		if done && len(wantPerCategory) > 0 {
			break
		}
	}
	return out
}
