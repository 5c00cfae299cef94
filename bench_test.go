package tlsfof

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// regenerates its artifact end to end — campaign simulation, client
// population, proxy forging, measurement, aggregation, rendering — at
// benchScale of the paper-size workload (override the printed tables with
// cmd/study -scale=1 for paper-size numbers; EXPERIMENTS.md records a
// full-scale run).

import (
	"crypto/x509/pkix"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/adsim"
	"tlsfof/internal/certgen"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/ingest"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/x509util"
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

// ingestWorkload synthesizes a study-shaped measurement stream (18 hosts,
// mixed countries, ~12% proxied) without touching crypto, so the ingest
// benchmarks measure the data plane — hashing, batching, channel handoff,
// store aggregation — and nothing else.
func ingestWorkload(n int) []core.Measurement {
	r := stats.NewRNG(99)
	hostNames := make([]string, 0, 18)
	for _, h := range hostdb.SecondStudyHosts() {
		hostNames = append(hostNames, h.Name)
	}
	countries := []string{"US", "DE", "RO", "BR", "KR", "GR", "??"}
	issuers := []string{"Bitdefender", "Sendori, Inc", "Kurupira.NET", "POSCO", "Null"}
	epoch := time.Date(2014, time.October, 8, 0, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, n)
	for i := range ms {
		m := core.Measurement{
			Time:     epoch.Add(time.Duration(i) * time.Millisecond),
			ClientIP: uint32(r.Intn(1 << 26)),
			Country:  countries[r.Intn(len(countries))],
			Host:     hostNames[r.Intn(len(hostNames))],
			Campaign: "bench",
		}
		if r.Intn(8) == 0 {
			m.Obs = core.Observation{
				Proxied:   true,
				IssuerOrg: issuers[r.Intn(len(issuers))],
				KeyBits:   []int{512, 1024, 2048, 2432}[r.Intn(4)],
				MD5Signed: r.Intn(4) == 0,
			}
			m.Obs.WeakKey = m.Obs.KeyBits < 2048
		}
		ms[i] = m
	}
	return ms
}

// feed drives the workload into sink from `producers` goroutines, striped,
// calling done once per goroutine when its stripe is delivered.
func feed(ms []core.Measurement, producers int, mk func(w int) core.Sink, done func(core.Sink)) {
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := mk(w)
			for i := w; i < len(ms); i += producers {
				sink.Ingest(ms[i])
			}
			if done != nil {
				done(sink)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkIngestPipeline contrasts the seed's single-mutex store with the
// sharded, batched pipeline at 1/4/8 shards under concurrent producers.
// The "mutex" case is the old architecture: every producer serializes on
// one store.DB lock. The shard cases route through internal/ingest and end
// with the deterministic merge, so they pay the full pipeline cost
// including reduce. The repository benchmark (bench/, study2-sharded)
// is the gated measurement of this path; this is the quick local one.
func BenchmarkIngestPipeline(b *testing.B) {
	const n = 100_000
	ms := ingestWorkload(n)
	producers := runtime.GOMAXPROCS(0)
	if producers < 2 {
		producers = 2
	}

	b.Run("mutex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := store.New(0)
			feed(ms, producers, func(int) core.Sink { return db }, nil)
			if db.Totals().Tested != n {
				b.Fatal("lost measurements")
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "meas/sec")
	})

	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := ingest.NewPipeline(ingest.Config{Shards: shards, Block: true})
				feed(ms, producers,
					func(int) core.Sink { return ingest.NewBatcher(p, 0) },
					func(s core.Sink) { s.(*ingest.Batcher).Flush() })
				p.Close()
				db := p.Merge(0)
				if db.Totals().Tested != n {
					b.Fatal("lost measurements")
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "meas/sec")
		})
	}
}

// BenchmarkIngestPipelineWire contrasts the two upload decode paths a
// report takes into reportd: the seed's concatenated-PEM body versus the
// binary wire frame — the base64 round trip the batch endpoint deletes.
func BenchmarkIngestPipelineWire(b *testing.B) {
	pool := certgen.NewKeyPool(1, nil)
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Bench CA", Organization: []string{"Bench"}},
		KeyBits: 1024, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: "bench.example", KeyBits: 2048, Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	pem := x509util.EncodeChainPEM(leaf.ChainDER)
	wireStream, err := ingest.EncodeReports([]ingest.Report{{Host: "bench.example", ChainDER: leaf.ChainDER}})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("pem", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pem)))
		for i := 0; i < b.N; i++ {
			if _, err := x509util.DecodeChainPEM(pem); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wireStream)))
		for i := 0; i < b.N; i++ {
			dec := ingest.NewDecoder(newByteReader(wireStream))
			if _, err := dec.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// newByteReader avoids importing bytes just for the benchmark.
func newByteReader(b []byte) io.Reader { return &byteReader{b: b} }

type byteReader struct{ b []byte }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// BenchmarkGeoLookup measures the geolocation substrate on the study's hot
// path.
func BenchmarkGeoLookup(b *testing.B) {
	gdb := geo.NewDB()
	r := stats.NewRNG(1)
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i], _ = gdb.RandomIPUint32(r, "US")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gdb.LookupUint32(addrs[i%len(addrs)])
	}
}
