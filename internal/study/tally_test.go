package study

// A campaign generating into its private store tallies its clean tests
// and adds them in bulk; one streaming through Config.Sink hands over
// every test as a row. The two paths make the same draws, so they must
// fill equal stores.

import (
	"bytes"
	"strings"
	"testing"

	"tlsfof/internal/adsim"
	"tlsfof/internal/certgen"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// measured runs cfg with a fresh registry and returns the run's
// study_measurements_total alongside the result.
func measured(t *testing.T, cfg Config) (*Result, uint64) {
	t.Helper()
	cfg.Metrics = telemetry.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Metrics.Counter("study_measurements_total", "").Value()
}

func TestCleanTallyMatchesRowStream(t *testing.T) {
	base := Config{Study: clientpop.Study2, Seed: 2014, Scale: 0.02, Pool: certgen.DefaultPool}

	streamed := store.New(0)
	cfg := base
	cfg.Sink = streamed
	_, n := measured(t, cfg)
	if tested := streamed.Totals().Tested; n != uint64(tested) {
		t.Errorf("row stream: study_measurements_total = %d, the sink stored %d", n, tested)
	}
	want := store.Merge(0, streamed).AppendSnapshot(nil)

	for _, shards := range []int{1, 4} {
		cfg := base
		cfg.Shards = shards
		res, n := measured(t, cfg)
		if tested := res.Store.Totals().Tested; n != uint64(tested) {
			t.Errorf("shards=%d: study_measurements_total = %d, Totals().Tested = %d", shards, n, tested)
		}
		if got := store.Merge(0, res.Store).AppendSnapshot(nil); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: tallied store differs from the row stream's: %+v vs %+v",
				shards, res.Store.Totals(), streamed.Totals())
		}
	}
}

// TestUnknownTargetCountryFails: a campaign targeting a country the geo
// registry lacks is refused by name, rather than generating clients at
// 0.0.0.0.
func TestUnknownTargetCountryFails(t *testing.T) {
	w, err := newWorld(clientpop.Study2, certgen.DefaultPool, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := adsim.Campaign{Name: "typo", TargetCountry: "ZZ", Days: 7}
	gen := &campaignGen{world: w, scale: 1, epoch: studyEpoch(clientpop.Study2)}
	err = gen.run(c, adsim.Outcome{Impressions: 100}, stats.NewRNG(1), store.New(0), nil)
	if err == nil || !strings.Contains(err.Error(), "typo") || !strings.Contains(err.Error(), `"ZZ"`) {
		t.Fatalf("run = %v, want an error naming campaign typo and country \"ZZ\"", err)
	}
}
