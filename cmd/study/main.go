// Command study runs a full simulated reproduction of one of the paper's
// measurement studies and prints the requested evaluation tables/figures.
//
// Usage:
//
//	study -study=first -table=3,4,5,5.2          # first study artifacts
//	study -study=second -table=2,6,7,8 -figure=7 # second study artifacts
//	study -study=second -table=all -scale=0.1    # everything, 10% scale
//	study -baseline                               # Huang whale-only comparison
//	study -study=second -svg=fig7.svg             # Figure 7 as SVG
//	study -study=second -csv=proxied.csv          # export proxied records
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"tlsfof"
	"tlsfof/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse args, run the study, write tables to
// stdout and everything else to stderr, return the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "study: "+format+"\n", args...)
		return 1
	}
	var (
		studyName = fs.String("study", "first", "which study to run: first | second")
		tables    = fs.String("table", "", "comma-separated tables to print (1,2,3,4,5,6,7,8,5.2,products or 'all')")
		figure    = fs.String("figure", "", "figure to print: 7")
		baseline  = fs.Bool("baseline", false, "also run the Huang-style whale-only baseline and print the comparison")
		seed      = fs.Uint64("seed", 2014, "simulation seed (same seed ⇒ same tables)")
		scale     = fs.Float64("scale", 1.0, "workload scale (1.0 = paper-size campaigns)")
		shards    = fs.Int("shards", 1, ">1 runs the campaigns concurrently (the count is otherwise unused); same tables and exports either way")
		svgPath   = fs.String("svg", "", "write Figure 7 as SVG to this path")
		csvPath   = fs.String("csv", "", "export proxied measurement records as CSV to this path")
		jsonlPath = fs.String("jsonl", "", "export proxied measurement records as JSON Lines to this path")
		progress  = fs.Duration("progress", 0, "print a progress/throughput line to stderr every interval, e.g. 5s (0 = off)")
	)
	fs.Parse(args)
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fatalf("-scale %v: want a finite number > 0", *scale)
	}

	cfg := tlsfof.StudyConfig{Seed: *seed, Scale: *scale, Shards: *shards}
	switch strings.ToLower(*studyName) {
	case "first", "1":
		cfg.Study = tlsfof.Study1
	case "second", "2":
		cfg.Study = tlsfof.Study2
	default:
		return fatalf("unknown -study %q (want first|second)", *studyName)
	}

	want := map[string]bool{}
	if *tables == "all" {
		for _, t := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "5.2", "products"} {
			want[t] = true
		}
	} else if *tables != "" {
		for _, t := range strings.Split(*tables, ",") {
			want[strings.TrimSpace(t)] = true
		}
	}
	// Study-appropriate defaults when nothing was requested.
	if len(want) == 0 && *figure == "" && !*baseline && *svgPath == "" && *csvPath == "" && *jsonlPath == "" {
		if cfg.Study == tlsfof.Study1 {
			want["3"], want["4"], want["5"], want["5.2"] = true, true, true, true
		} else {
			want["2"], want["6"], want["7"], want["8"] = true, true, true, true
		}
	}

	// The progress reporter rides the same telemetry registry every other
	// binary exposes: the study run counts measurements into it and a
	// ticker goroutine turns counter deltas into throughput lines.
	stopProgress := func() {}
	if *progress > 0 {
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		meas := reg.Counter("study_measurements_total", "")
		campaigns := reg.Counter("study_campaigns_done_total", "")
		done := make(chan struct{})
		var once sync.Once
		stopProgress = func() { once.Do(func() { close(done) }) }
		go func() {
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			start := time.Now()
			var last uint64
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					cur := meas.Value()
					fmt.Fprintf(stderr, "progress: %d measurements (+%d, %.0f/s), %d campaigns done, %v elapsed\n",
						cur, cur-last, float64(cur-last)/progress.Seconds(),
						campaigns.Value(), time.Since(start).Round(time.Second))
					last = cur
				}
			}
		}()
	}

	fmt.Fprintf(stderr, "running %s study (seed=%d scale=%g)...\n", *studyName, *seed, *scale)
	res, err := tlsfof.RunStudy(cfg)
	stopProgress()
	if err != nil {
		return fatalf("study failed: %v", err)
	}
	tested, proxied := tlsfof.Totals(res)
	fmt.Fprintf(stderr, "completed in %v: %d certificate tests, %d proxied (%.2f%%)\n",
		res.Duration.Round(1000000), tested, proxied, 100*float64(proxied)/float64(tested))
	fmt.Fprintln(stderr)

	order := []tlsfof.Table{
		tlsfof.TableHosts, tlsfof.TableCampaigns, tlsfof.TableCountriesFirst,
		tlsfof.TableIssuers, tlsfof.TableClassesFirst, tlsfof.TableClassesSecond,
		tlsfof.TableCountriesSecond, tlsfof.TableHostTypes, tlsfof.TableNegligence,
		tlsfof.TableProducts,
	}
	for _, t := range order {
		if !want[string(t)] {
			continue
		}
		if err := tlsfof.WriteTable(stdout, res, t); err != nil {
			return fatalf("table %s: %v", t, err)
		}
		fmt.Fprintln(stdout)
	}

	if *figure == "7" {
		if err := tlsfof.WriteTable(stdout, res, tlsfof.Figure7ASCII); err != nil {
			return fatalf("figure 7: %v", err)
		}
		fmt.Fprintln(stdout)
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return fatalf("create %s: %v", *svgPath, err)
		}
		if err := tlsfof.WriteTable(f, res, tlsfof.Figure7SVG); err != nil {
			return fatalf("render SVG: %v", err)
		}
		f.Close()
		fmt.Fprintf(stderr, "wrote %s\n", *svgPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fatalf("create %s: %v", *csvPath, err)
		}
		if err := tlsfof.Store(res).WriteCSV(f); err != nil {
			return fatalf("export CSV: %v", err)
		}
		f.Close()
		fmt.Fprintf(stderr, "wrote %s\n", *csvPath)
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return fatalf("create %s: %v", *jsonlPath, err)
		}
		if err := tlsfof.Store(res).WriteJSONL(f); err != nil {
			return fatalf("export JSONL: %v", err)
		}
		f.Close()
		fmt.Fprintf(stderr, "wrote %s\n", *jsonlPath)
	}

	if *baseline {
		cfg.Pool = res.Config.Pool // the run's keys and world memo: nothing minted twice
		base, err := tlsfof.RunHuangBaseline(cfg)
		if err != nil {
			return fatalf("baseline: %v", err)
		}
		if err := tlsfof.WriteBaseline(stdout, res, base); err != nil {
			return fatalf("baseline table: %v", err)
		}
	}
	return 0
}
