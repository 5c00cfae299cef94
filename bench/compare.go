package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the
// median: the run-to-run spread.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// valuesOf collects one metric's values over a workload's runs.
func valuesOf(runs []*result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// printSpreads reports, after -runs N, how steady each gated metric was.
// The benchmark is steady enough when every spread but setup_s's is
// under a third of the metric's bound.
func printSpreads(w io.Writer, runs []*result) {
	fmt.Fprintf(w, "\n%-16s %-28s %14s %9s %7s\n", "workload", "metric", "median", "iqr/med", "bound")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			xs := valuesOf(runs, name, d.Name)
			if len(xs) == 0 {
				continue
			}
			note := ""
			if s := iqrShare(xs); s > d.Bound/3 && d.Name != "setup_s" {
				note = "  spread above bound/3"
			}
			fmt.Fprintf(w, "%-16s %-28s %14.4f %9.4f %7.2f n=%d%s\n", name, d.Name, median(xs), iqrShare(xs), d.Bound, len(xs), note)
		}
	}
}

func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSummaries prints, per workload and end-to-end metric, both
// medians, their ratio with its base, the bound and a verdict. B is
// worse when its median is worse than A's by more than the bound;
// unresolved when it is not, but either side's spread is wider than the
// bound and B's runs do not all beat A's; ok otherwise. The exit code is
// 1 when any row is worse.
func compareSummaries(w io.Writer, pathA, pathB string) int {
	var sums [2]*summary
	for i, path := range []string{pathA, pathB} {
		s, err := readSummary(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		sums[i] = s
	}
	return compareRuns(w, sums[0], sums[1])
}

func compareRuns(w io.Writer, a, b *summary) int {
	if a.Header.NProc != b.Header.NProc || a.Header.Seconds != b.Header.Seconds || a.Header.Quick != b.Header.Quick {
		fmt.Fprintf(w, "# WARNING: the summaries were not measured alike (nproc %d vs %d, seconds %d vs %d, quick %v vs %v)\n",
			a.Header.NProc, b.Header.NProc, a.Header.Seconds, b.Header.Seconds, a.Header.Quick, b.Header.Quick)
	}
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %12s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
	code := 0
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			xa, xb := valuesOf(a.Runs, name, d.Name), valuesOf(b.Runs, name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worsening := (mb - ma) / ma
			if d.Better == "higher" {
				worsening = -worsening
			}
			verdict := "ok"
			switch {
			case worsening > d.Bound:
				verdict = "worse"
				code = 1
			case max(iqrShare(xa), iqrShare(xb)) > d.Bound && !allBetter(xb, xa, d.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-28s %14.4f %14.4f %12.4f %6.2f  %s (n=%d/%d)\n", name, d.Name, ma, mb, mb/ma, d.Bound, verdict, len(xa), len(xb))
		}
	}
	return code
}

// allBetter reports whether every run of xs reads better than every run
// of ys.
func allBetter(xs, ys []float64, better string) bool {
	if better == "higher" {
		return slices.Min(xs) > slices.Max(ys)
	}
	return slices.Max(xs) < slices.Min(ys)
}
