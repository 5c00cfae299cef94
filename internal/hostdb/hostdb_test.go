package hostdb

import (
	"strings"
	"testing"

	"tlsfof/internal/stats"
)

func TestTable1Transcription(t *testing.T) {
	// Table 1: 6 popular, 5 business, 5 pornographic.
	counts := map[Category]int{}
	for _, h := range Table1Hosts {
		counts[h.Category]++
	}
	if counts[Popular] != 6 || counts[Business] != 5 || counts[Pornographic] != 5 {
		t.Fatalf("category counts = %v", counts)
	}
	// Spot-check names from the paper.
	for _, name := range []string{"qq.com", "airdroid.com", "pornclipstv.com", "vcp.ir", "webhost1.ru"} {
		if _, ok := HostByName(name); !ok {
			t.Errorf("Table 1 host %s missing", name)
		}
	}
}

func TestSecondStudyHostsAuthorsFirst(t *testing.T) {
	hosts := SecondStudyHosts()
	if len(hosts) != 17 {
		t.Fatalf("hosts = %d, want 17", len(hosts))
	}
	if hosts[0].Name != AuthorsHost.Name {
		t.Fatalf("first host = %s; the tool tests the authors' site first (§4.2)", hosts[0].Name)
	}
}

func TestFirstStudyHosts(t *testing.T) {
	hosts := FirstStudyHosts()
	if len(hosts) != 1 || hosts[0].Category != Authors {
		t.Fatalf("first study hosts = %v", hosts)
	}
}

func TestHostByName(t *testing.T) {
	h, ok := HostByName("tlsresearch.byu.edu")
	if !ok || h.Category != Authors {
		t.Fatalf("authors lookup = %v, %v", h, ok)
	}
	if _, ok := HostByName("not-a-host.example"); ok {
		t.Fatal("phantom host resolved")
	}
}

func TestCategoryStrings(t *testing.T) {
	if Popular.String() != "Popular" || Authors.String() != "Authors'" {
		t.Fatal("category labels wrong")
	}
	if len(AllCategories) != 4 {
		t.Fatal("category universe wrong")
	}
}

func TestScanSelectsPermissiveHighRanked(t *testing.T) {
	r := stats.NewRNG(5)
	want := map[Category]int{Popular: 6, Business: 5, Pornographic: 5}
	result := Scan(ScanConfig{Sites: 300000}, r, want)
	for cat, n := range want {
		sites := result[cat]
		if len(sites) != n {
			t.Fatalf("%v: selected %d sites, want %d", cat, len(sites), n)
		}
		// Ranks ascend (highest-ranked first) and every site is
		// permissive for 443.
		for i, s := range sites {
			if s.Policy == nil || !s.Policy.PermissiveFor(443) {
				t.Fatalf("%v[%d] not permissive", cat, i)
			}
			if i > 0 && sites[i-1].Rank > s.Rank {
				t.Fatalf("%v ranks not ascending: %d then %d", cat, sites[i-1].Rank, s.Rank)
			}
		}
	}
	// Popular selections respect the paper's top-25k notion.
	for _, s := range result[Popular] {
		if s.Rank > 25000 {
			t.Fatalf("popular site at rank %d", s.Rank)
		}
	}
}

func TestScanPolicyRarity(t *testing.T) {
	// Permissive policy files must be rare — that's why Table 1's
	// "popular" sites rank far below the true head of the Alexa list.
	r := stats.NewRNG(6)
	result := Scan(ScanConfig{Sites: 50000}, r, map[Category]int{Popular: 3})
	if len(result[Popular]) == 0 {
		t.Fatal("no popular sites found")
	}
	if result[Popular][0].Rank < 10 {
		t.Fatalf("top permissive popular site at rank %d; policy files should be rare", result[Popular][0].Rank)
	}
}

func TestScanSiteNaming(t *testing.T) {
	r := stats.NewRNG(7)
	result := Scan(ScanConfig{Sites: 100000}, r, map[Category]int{Business: 2})
	for _, s := range result[Business] {
		if !strings.HasPrefix(s.Name, "site-") {
			t.Fatalf("site name %q", s.Name)
		}
	}
}
