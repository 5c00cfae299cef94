package main

import (
	"fmt"
	"io"
	"time"
)

// sizes fixes how much work one round of each workload does. Counts, not
// durations, so every round of a run — and every run of a seed — does
// identical work; -seconds only decides how many rounds are measured.
type sizes struct {
	studyScale   float64 // study2-*: RunStudy scale (1.0 = 12,394,351 tests at seed 2014)
	probes       int     // livewire: probes per round
	reports      int     // reportd-stream: reports per round
	clusterScale float64 // cluster-ingest: study-2 stream scale (0.05 = 619,178 at seed 2014)
	rounds       int     // rounds per phase when -seconds is 0
	studyRounds  int     // the same, for the study workloads
}

var (
	// paperSizes are the sizes ISSUE 11 fixed on a 2-core host so that
	// each timed part stays under 30 s. Study rounds are 3, not 5: a
	// paper-size round takes ~6 s here.
	paperSizes = sizes{studyScale: 1.0, probes: 200_000, reports: 3_000_000, clusterScale: 0.05, rounds: 1, studyRounds: 3}
	// timedSizes are a tenth of that, so that -seconds 10 fits five or
	// more rounds and the reported medians are steady.
	timedSizes = sizes{studyScale: 0.1, probes: 20_000, reports: 300_000, clusterScale: 0.005}
	// quickSizes are a hundredth: the smoke test's sizes.
	quickSizes = sizes{studyScale: 0.01, probes: 2_000, reports: 30_000, clusterScale: 0.0005, rounds: 1, studyRounds: 2}
)

// runConfig is one workload run in one process.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int  // 0: fixed round counts at paper size
	quick    bool // 1/100 size, fixed round counts
	trace    bool // also run the traced phase and the isolated calls
	scratch  *scratch
	outDir   string
	log      io.Writer
	// world, when set, replaces the workload's own set-up of keys and
	// chains: the smoke test mints one for all five workloads.
	world *world
}

func (c runConfig) worldOr(keySizes ...int) (*world, error) {
	if c.world != nil {
		return c.world, nil
	}
	return newWorld(keySizes...)
}

func (c runConfig) sizes() sizes {
	switch {
	case c.quick:
		return quickSizes
	case c.seconds > 0:
		return timedSizes
	}
	return paperSizes
}

// budget is how long one phase measures. A traced run splits -seconds
// between its untraced reference phase and its traced phase, so a run
// measures for -seconds either way.
func (c runConfig) budget(study bool) budget {
	if c.seconds > 0 && !c.quick {
		until := time.Duration(c.seconds) * time.Second
		if c.trace {
			until /= 2
		}
		return budget{until: until}
	}
	if study {
		return budget{rounds: c.sizes().studyRounds}
	}
	return budget{rounds: c.sizes().rounds}
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, "bench %s: "+format+"\n", append([]any{c.workload}, args...)...)
	}
}

// check is one correctness assertion; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one workload run reports.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// RoundSize is the measurements one round stores.
	RoundSize int64     `json:"round_size"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Checks    []check   `json:"checks"`
	Metrics   metricSet `json:"metrics"`
	// RoundWalls are the untraced rounds' wall times in seconds, kept so a
	// disturbed run can be told from a slow one.
	RoundWalls []float64 `json:"round_walls_s"`
	TraceFile  string    `json:"trace_file,omitempty"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// finish adds the metrics every workload derives the same way.
func (r *result) finish(w *world, setup time.Duration, untraced, traced *phase) {
	untraced.endToEndMetrics(r.Metrics, setup)
	r.RoundWalls = untraced.roundWalls()
	r.Attempted, r.Failed = untraced.attempted, untraced.failed
	if traced != nil {
		r.Attempted += traced.attempted
		r.Failed += traced.failed
		// Overhead compares per-measurement wall, so phases of different
		// round counts compare fairly.
		un, uw := untraced.total()
		tn, tw := traced.total()
		per := func(n int64, w time.Duration) float64 { return w.Seconds() / float64(n) }
		r.Metrics.put("bench.trace_overhead_share", per(tn, tw)/per(un, uw)-1, len(traced.rounds))
	}
	r.Metrics.put("certgen.keygen_s", w.keygen.Seconds(), 1)
	r.Metrics.put("bench.round_spread", spread(untraced.roundWalls()), len(untraced.rounds))
	r.Metrics.put("bench.rounds", float64(len(untraced.rounds)), 1)
	r.Metrics.put("bench.failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), 1)
	processMetrics(r.Metrics)
}

// runWorkload dispatches one workload by name.
func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.workload {
	case wlStudySeq:
		return runStudy(cfg, false)
	case wlStudySharded:
		return runStudy(cfg, true)
	case wlLivewire:
		return runLivewire(cfg)
	case wlReportd:
		return runReportd(cfg)
	case wlCluster:
		return runCluster(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.workload, workloadNames)
}
