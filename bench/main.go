// Command bench is the repository's benchmark: five workloads that drive
// the public functions of internal/* the way cmd/study, cmd/mitmd,
// cmd/tlsproxy-probe and cmd/reportd mount them, six gated end-to-end
// metrics and a per-layer ledger measured from outside. README.md in
// this directory is the glossary; BENCHMARK.json at the repository root
// is the contract a driver runs it by.
//
//	go run -C bench . -workload all -seed 2014            # paper-size counts
//	go run -C bench . -workload livewire -seconds 10      # rounds for 10 s
//	go run -C bench . -workload all -trace 1 -out a.json  # ledger + span files
//	go run -C bench . -workload all -seconds 10 -runs 10 -out a.json
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// header records the host a summary was measured on: numbers from
// different hosts, core counts or filesystems do not compare.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	DataFS     string  `json:"data_dir_filesystem"`
	LoadAvg1   float64 `json:"load_average_1m"`
	Seconds    int     `json:"seconds"`
	Quick      bool    `json:"quick"`
	Trace      bool    `json:"trace"`
}

// summary is the -out document. Claim is always null: the benchmark
// measures, a later change claims.
type summary struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
	Claim  *string   `json:"claim"`
}

func newHeader(out string, seconds int, quick, trace bool) header {
	h := header{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", DataFS: fsType(out), Seconds: seconds, Quick: quick, Trace: trace}
	if root, err := repoRoot(); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# bench: nproc=%d GOMAXPROCS=%d %s commit=%s data-dir-fs=%s load1=%.2f workers<=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.DataFS, h.LoadAvg1, h.NProc)
	if h.LoadAvg1 > float64(h.NProc)/2 {
		fmt.Fprintf(w, "# bench: WARNING: load average %.2f exceeds nproc/2; timings will be disturbed\n", h.LoadAvg1)
	}
}

// printResult prints every metric by name with its unit and sample
// count, then the checks.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "## %s seed=%d round=%d measurements attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.RoundSize, r.Attempted, r.Failed)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-40s %16.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.N)
			}
		}
	}
	for _, c := range r.Checks {
		if c.OK {
			fmt.Fprintf(w, "ok    %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "spans %s\n", r.TraceFile)
	}
}

// contractLine is the last line of standard output: the end-to-end
// metrics of an untraced run, or every per-layer metric of a traced one
// (0 where the workload does not exercise the layer).
func contractLine(r *result, trace bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{r.Metrics[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	return string(b)
}

// checkEmitted verifies a run emitted exactly the metrics defined on its
// workload: every end-to-end metric, and in a traced run every per-layer
// metric too.
func checkEmitted(r *result, trace bool) {
	var missing []string
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if trace {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; definedOn(d, r.Workload) && !ok {
				missing = append(missing, d.Name)
			}
		}
	}
	r.check("every defined metric emitted", len(missing) == 0, "missing %v", missing)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, " | ")+" | all")
		seed     = flag.Uint64("seed", 2014, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "measure rounds of a tenth of paper size for this long (0: fixed round counts at paper size)")
		trace    = flag.Int("trace", 0, "1: also run the traced phase and the isolated calls, write out/trace-<workload>.json, report the per-layer ledger")
		quick    = flag.Bool("quick", false, "every workload at 1/100 size (smoke test)")
		out      = flag.String("out", "", "write the run summary as JSON to this file")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, seeds seed, seed+1, ... (each in its own process)")
		compare  = flag.Bool("compare", false, "compare two summaries: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants two summary files")
		}
		os.Exit(compareSummaries(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	dir, err := outDir()
	if err != nil {
		fatalf("%v", err)
	}
	sum := summary{Header: newHeader(dir, *seconds, *quick, *trace == 1)}
	if os.Getenv(childEnv) == "" {
		sum.Header.print(os.Stdout)
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if len(names) == 1 && *runs == 1 {
		sc, err := newScratch()
		if err != nil {
			fatalf("%v", err)
		}
		cfg := runConfig{workload: names[0], seed: *seed, seconds: *seconds, quick: *quick, trace: *trace == 1,
			scratch: sc, outDir: dir, log: os.Stderr}
		r, err := runWorkload(cfg)
		sc.remove()
		if err != nil {
			fatalf("%s: %v", names[0], err)
		}
		checkEmitted(r, cfg.trace)
		sum.Runs = append(sum.Runs, r)
		printResult(os.Stdout, r)
		writeSummary(*out, &sum)
		fmt.Println(contractLine(r, cfg.trace))
		if !r.correct() {
			os.Exit(1)
		}
		return
	}

	// One child process per workload run, so allocation, RSS, GC and
	// cache state never leak from one into the next.
	ok := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			r, err := runChild(name, *seed+uint64(i), *seconds, *trace, *quick, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				ok = false
				continue
			}
			sum.Runs = append(sum.Runs, r)
			ok = ok && r.correct()
		}
	}
	if *runs > 1 {
		printSpreads(os.Stdout, sum.Runs)
	}
	writeSummary(*out, &sum)
	if !ok {
		os.Exit(1)
	}
}

// childEnv marks a re-executed child, which leaves the run header to its
// parent.
const childEnv = "TLSFOF_BENCH_CHILD"

// runChild re-executes this binary for one workload run and reads the
// child's summary back.
func runChild(name string, seed uint64, seconds, trace int, quick bool, dir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "child-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-trace", strconv.Itoa(trace), "-out", f.Name()}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var child summary
	if err := json.Unmarshal(b, &child); err != nil || len(child.Runs) != 1 {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child wrote no summary")
	}
	return child.Runs[0], nil
}

func writeSummary(path string, sum *summary) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(sum, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o666)
	}
	if err != nil {
		fatalf("write summary: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
