package tlsfof

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// regenerates its artifact end to end — campaign simulation, client
// population, proxy forging, measurement, aggregation, rendering — at
// benchScale of the paper-size workload (override the printed tables with
// cmd/study -scale=1 for paper-size numbers; EXPERIMENTS.md records a
// full-scale run).

import (
	"io"
	"sync"
	"testing"

	"tlsfof/internal/adsim"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

// benchScale keeps a full `go test -bench=.` run in CI-friendly time while
// leaving every distribution populated (~143k tests for study 1, ~616k for
// study 2 per iteration).
const benchScale = 0.05

var (
	benchMu      sync.Mutex
	benchStudies = map[int]*StudyResult{}
)

// benchStudy memoizes one study run per study number so render-only
// benchmarks don't pay for regeneration in every iteration.
func benchStudy(b *testing.B, n int) *StudyResult {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if res, ok := benchStudies[n]; ok {
		return res
	}
	cfg := StudyConfig{Seed: 2014, Scale: benchScale}
	if n == 1 {
		cfg.Study = Study1
	} else {
		cfg.Study = Study2
	}
	res, err := RunStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchStudies[n] = res
	return res
}

// BenchmarkTable1_PolicyScan regenerates Table 1: scan the synthetic Alexa
// universe for permissive socket-policy hosts and select the probe list.
func BenchmarkTable1_PolicyScan(b *testing.B) {
	want := map[hostdb.Category]int{
		hostdb.Popular: 6, hostdb.Business: 5, hostdb.Pornographic: 5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := stats.NewRNG(uint64(i) + 1)
		result := hostdb.Scan(hostdb.ScanConfig{Sites: 1_000_000}, r, want)
		if len(result[hostdb.Popular]) != 6 {
			b.Fatal("scan under-selected")
		}
	}
}

// BenchmarkTable2_CampaignStats regenerates Table 2: the six second-study
// AdWords campaigns (impressions, clicks, cost).
func BenchmarkTable2_CampaignStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := stats.NewRNG(uint64(i) + 1)
		outs, total, err := adsim.RunAll(adsim.SecondStudyCampaigns(), r)
		if err != nil {
			b.Fatal(err)
		}
		if total.Impressions == 0 || len(outs) != 6 {
			b.Fatal("campaign simulation degenerate")
		}
	}
}

// BenchmarkTable3_FirstStudyByCountry regenerates Table 3: the entire
// first study (campaign → population → interception → measurement) plus
// the per-country table render.
func BenchmarkTable3_FirstStudyByCountry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunStudy(StudyConfig{Study: Study1, Seed: uint64(i) + 1, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteTable(io.Discard, res, TableCountriesFirst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_IssuerOrgs regenerates Table 4's issuer histogram from a
// cached first-study run (render + aggregation path).
func BenchmarkTable4_IssuerOrgs(b *testing.B) {
	res := benchStudy(b, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTable(io.Discard, res, TableIssuers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_ClassifyFirst regenerates Table 5 (first-study
// classification).
func BenchmarkTable5_ClassifyFirst(b *testing.B) {
	res := benchStudy(b, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTable(io.Discard, res, TableClassesFirst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6_ClassifySecond regenerates Table 6 (second-study
// classification).
func BenchmarkTable6_ClassifySecond(b *testing.B) {
	res := benchStudy(b, 2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTable(io.Discard, res, TableClassesSecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7_SecondStudyByCountry regenerates Table 7: the entire
// second study (six campaigns, 18 hosts, country targeting) plus the
// table render.
func BenchmarkTable7_SecondStudyByCountry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunStudy(StudyConfig{Study: Study2, Seed: uint64(i) + 1, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteTable(io.Discard, res, TableCountriesSecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8_HostTypes regenerates Table 8 (per-host-type rates).
func BenchmarkTable8_HostTypes(b *testing.B) {
	res := benchStudy(b, 2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTable(io.Discard, res, TableHostTypes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNegligenceReport regenerates the §5.2 negligent-behavior
// analysis.
func BenchmarkNegligenceReport(b *testing.B) {
	res := benchStudy(b, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTable(io.Discard, res, TableNegligence); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_Heatmap regenerates Figure 7 in both renderings.
func BenchmarkFigure7_Heatmap(b *testing.B) {
	res := benchStudy(b, 2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTable(io.Discard, res, Figure7ASCII); err != nil {
			b.Fatal(err)
		}
		if err := WriteTable(io.Discard, res, Figure7SVG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineHuang regenerates the Huang et al. comparison: the same
// population measured only at a whale-class host.
func BenchmarkBaselineHuang(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := RunHuangBaseline(StudyConfig{Study: Study1, Seed: uint64(i) + 1, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if base.Tested == 0 {
			b.Fatal("baseline degenerate")
		}
	}
}

// BenchmarkAblation_FullStudy2 runs the complete second study in one
// iteration — the end-to-end number EXPERIMENTS.md quotes for throughput.
func BenchmarkAblation_FullStudy2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunStudy(StudyConfig{Study: Study2, Seed: uint64(i) + 1, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		tested, _ := Totals(res)
		b.ReportMetric(float64(tested)/b.Elapsed().Seconds(), "tests/sec")
	}
}

// BenchmarkGeoLookup measures the geolocation substrate on the study's hot
// path.
func BenchmarkGeoLookup(b *testing.B) {
	gdb := geo.NewDB()
	r := stats.NewRNG(1)
	us, _ := gdb.Index("US")
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = gdb.RandomIPUint32(r, us)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gdb.LookupUint32(addrs[i%len(addrs)])
	}
}
