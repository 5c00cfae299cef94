package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsfof/internal/certgen"
)

// TestQuickWorkloads runs every workload at 1/100 size with the traced
// phase and the isolated calls on, on a seed other than the default, and
// asserts what a driver relies on: the checks pass, every metric defined
// on the workload is emitted once, finite and with its unit, and the
// contract line parses.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads over real sockets and WALs")
	}
	w, err := newWorld(certgen.KeySizes...)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := newScratch()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.remove()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 7, quick: true, trace: true, scratch: sc, outDir: sc.root, world: w}
			r, err := runWorkload(cfg) // metricSet.put panics on a second emission
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(r, true)
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("check %q failed: %s", c.Name, c.Detail)
				}
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			for name, v := range r.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v is not finite", name, v.Value)
				}
				if v.Unit == "" {
					t.Errorf("%s has no unit", name)
				}
			}
			for _, d := range endToEnd {
				if v := r.Metrics[d.Name]; v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; must never be 0", d.Name, v.Value)
				}
			}
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			for _, trace := range []bool{false, true} {
				var line struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(contractLine(r, trace)), &line); err != nil {
					t.Fatal(err)
				}
				want := len(endToEnd)
				if trace {
					want = len(perLayer)
				}
				if !line.Correct || len(line.Metrics) != want {
					t.Errorf("contract line (trace %v): correct %v, %d metrics, want %d", trace, line.Correct, len(line.Metrics), want)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and metrics.go in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run -C bench ." || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s[%d] %s: bound mismatch or out of (0, 0.25]", kind, i, d.Name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s[%d] %s: per-layer metrics carry no bound", kind, i, d.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

// TestQuartilesMatchPython pins quartiles to the values
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestSelfTime checks the union-and-clip rule: overlapping children are
// counted once, and a child reaching outside its parent only counts for
// the part inside.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spProbeOp, Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: spDial, Start: 90, End: 130},        // starts before the parent
		{ID: 3, Parent: 1, Name: spProbe, Start: 120, End: 180},      // overlaps its sibling
		{ID: 4, Parent: 3, Name: spHandleConn, Start: 150, End: 260}, // outlives its parent
	}
	tot := summarize(spans)
	if got := tot[spProbeOp].SelfNS; got != 20 { // 100 − |[100,180]|
		t.Errorf("op self = %d, want 20", got)
	}
	if got := tot[spProbe].SelfNS; got != 30 { // 60 − |[150,180]|
		t.Errorf("probe self = %d, want 30", got)
	}
	if got := unattributedShare(tot); got != 0.2 {
		t.Errorf("unattributed share = %v, want 0.2", got)
	}
}

// TestCompareVerdicts walks the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	runs := func(rates ...float64) *summary {
		s := &summary{}
		for _, r := range rates {
			s.Runs = append(s.Runs, &result{Workload: wlLivewire, Metrics: metricSet{"measurements_per_s": {Value: r, Unit: "1/s", N: 1}}})
		}
		return s
	}
	for _, tc := range []struct {
		name string
		a, b *summary
		want string
		code int
	}{
		{"same", runs(100, 101, 99), runs(100, 100, 101), "ok", 0},
		{"slower by a third", runs(100, 101, 99), runs(66, 67, 65), "worse", 1},
		{"noisy", runs(100, 140, 60), runs(98, 150, 70), "unresolved", 0},
	} {
		var out bytes.Buffer
		if code := compareRuns(&out, tc.a, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, output:\n%s\nwant verdict %q, exit %d", tc.name, code, out.String(), tc.want, tc.code)
		}
	}
}
