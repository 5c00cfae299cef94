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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"tlsfof"
	"tlsfof/internal/telemetry"
)

func main() {
	var (
		studyName = flag.String("study", "first", "which study to run: first | second")
		tables    = flag.String("table", "", "comma-separated tables to print (1,2,3,4,5,6,7,8,5.2,products or 'all')")
		figure    = flag.String("figure", "", "figure to print: 7")
		baseline  = flag.Bool("baseline", false, "also run the Huang-style whale-only baseline and print the comparison")
		seed      = flag.Uint64("seed", 2014, "simulation seed (same seed ⇒ same tables)")
		scale     = flag.Float64("scale", 1.0, "workload scale (1.0 = paper-size campaigns)")
		shards    = flag.Int("shards", 1, "ingest shards (>1 runs campaigns in parallel through the sharded pipeline; same tables either way)")
		svgPath   = flag.String("svg", "", "write Figure 7 as SVG to this path")
		csvPath   = flag.String("csv", "", "export proxied measurement records as CSV to this path")
		jsonlPath = flag.String("jsonl", "", "export proxied measurement records as JSON Lines to this path")
		dataDir   = flag.String("data-dir", "", "durable WAL + checkpoint directory: an interrupted run rerun with the same flags resumes instead of restarting")
		snapEvery = flag.Int("snapshot-every", 0, "checkpoint the WAL every N measurements (0 = only at completion; with -data-dir)")
		abortAt   = flag.Int("abort-after", 0, "crash injection: abort the run after N durable measurements (exit 3; resume with the same -data-dir)")
		progress  = flag.Duration("progress", 0, "print a progress/throughput line to stderr every interval, e.g. 5s (0 = off)")
	)
	flag.Parse()

	cfg := tlsfof.StudyConfig{Seed: *seed, Scale: *scale, Shards: *shards,
		DataDir: *dataDir, SnapshotEvery: *snapEvery, AbortAfter: *abortAt}
	switch strings.ToLower(*studyName) {
	case "first", "1":
		cfg.Study = tlsfof.Study1
	case "second", "2":
		cfg.Study = tlsfof.Study2
	default:
		fatalf("unknown -study %q (want first|second)", *studyName)
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
					fmt.Fprintf(os.Stderr, "progress: %d measurements (+%d, %.0f/s), %d campaigns done, %v elapsed\n",
						cur, cur-last, float64(cur-last)/progress.Seconds(),
						campaigns.Value(), time.Since(start).Round(time.Second))
					last = cur
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "running %s study (seed=%d scale=%g)...\n", *studyName, *seed, *scale)
	res, err := tlsfof.RunStudy(cfg)
	stopProgress()
	if errors.Is(err, tlsfof.ErrStudyAborted) {
		fmt.Fprintf(os.Stderr, "study: %v\n", err)
		os.Exit(3)
	}
	if err != nil {
		fatalf("study failed: %v", err)
	}
	if r := res.Resume; r != nil {
		if r.Recovered > 0 {
			fmt.Fprintf(os.Stderr, "resumed from %s: %d measurements recovered (snapshot seq %d, %d WAL frames replayed), generation skipped what was durable\n",
				*dataDir, r.Recovered, r.Info.SnapshotSeq, r.Info.Replayed)
		}
		fmt.Fprintf(os.Stderr, "durable: %d frames appended (%d bytes), %d fsyncs, %d segments, snapshot through seq %d\n",
			r.WAL.AppendedFrames, r.WAL.AppendedBytes, r.WAL.Fsyncs, r.WAL.Segments, r.WAL.LastSeq)
	}
	tested, proxied := tlsfof.Totals(res)
	fmt.Fprintf(os.Stderr, "completed in %v: %d certificate tests, %d proxied (%.2f%%)\n",
		res.Duration.Round(1000000), tested, proxied, 100*float64(proxied)/float64(tested))
	fmt.Fprintln(os.Stderr)

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
		if err := tlsfof.WriteTable(os.Stdout, res, t); err != nil {
			fatalf("table %s: %v", t, err)
		}
		fmt.Println()
	}

	if *figure == "7" {
		if err := tlsfof.WriteTable(os.Stdout, res, tlsfof.Figure7ASCII); err != nil {
			fatalf("figure 7: %v", err)
		}
		fmt.Println()
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatalf("create %s: %v", *svgPath, err)
		}
		if err := tlsfof.WriteTable(f, res, tlsfof.Figure7SVG); err != nil {
			fatalf("render SVG: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svgPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatalf("create %s: %v", *csvPath, err)
		}
		if err := tlsfof.Store(res).WriteCSV(f); err != nil {
			fatalf("export CSV: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fatalf("create %s: %v", *jsonlPath, err)
		}
		if err := tlsfof.Store(res).WriteJSONL(f); err != nil {
			fatalf("export JSONL: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonlPath)
	}

	if *baseline {
		base, err := tlsfof.RunHuangBaseline(cfg)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		if err := tlsfof.WriteBaseline(os.Stdout, res, base); err != nil {
			fatalf("baseline table: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "study: "+format+"\n", args...)
	os.Exit(1)
}
