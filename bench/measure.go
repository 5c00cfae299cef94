package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart anchors setup_s: wall from process start to the first
// timed operation.
var processStart = time.Now()

// nproc is the worker and connection cap: load comes from one process
// with at most this many closed-loop clients.
var nproc = runtime.NumCPU()

// meter brackets one timed part: wall clock, process CPU (user+sys from
// getrusage) and the allocator's cumulative counters.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu0: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, t0: time.Now()}
}

// roundSample is what one round of n measurements cost.
type roundSample struct {
	n       int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (m meter) stop(n int64) roundSample {
	wall := time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return roundSample{n: n, wall: wall, cpu: cpuTime() - m.cpu0,
		mallocs: ms.Mallocs - m.mallocs, bytes: ms.TotalAlloc - m.bytes}
}

// budget decides how many rounds a phase runs: a fixed count (paper-size
// and -quick runs, so every run does identical work) or as many as fit
// in a duration, with a floor so a median always exists.
type budget struct {
	rounds int
	until  time.Duration
}

const minTimedRounds = 3

func (b budget) more(done int, start time.Time) bool {
	if b.until > 0 {
		return done < minTimedRounds || time.Since(start) < b.until
	}
	return done < b.rounds
}

// phase is the outcome of running a workload's rounds once, traced or
// not: per-round costs, per-operation latencies and the counters the
// correctness checks read.
type phase struct {
	rounds    []roundSample
	ops       latencies // end-to-end latency_p50_us samples
	attempted int64
	failed    int64
}

func (p *phase) total() (n int64, wall time.Duration) {
	for _, r := range p.rounds {
		n += r.n
		wall += r.wall
	}
	return n, wall
}

// endToEndMetrics folds the untraced phase into the gated metrics: each
// is the median over rounds, so one disturbed round does not move it.
func (p *phase) endToEndMetrics(out metricSet, setup time.Duration) {
	var rate, cpu, allocs, bytes []float64
	for _, r := range p.rounds {
		n := float64(r.n)
		rate = append(rate, n/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond)/n)
		allocs = append(allocs, float64(r.mallocs)/n)
		bytes = append(bytes, float64(r.bytes)/n)
	}
	out.put("setup_s", setup.Seconds(), 1)
	out.put("measurements_per_s", median(rate), len(rate))
	out.put("cpu_us_per_measurement", median(cpu), len(cpu))
	out.put("allocs_per_measurement", median(allocs), len(allocs))
	out.put("alloc_bytes_per_measurement", median(bytes), len(bytes))
	out.put("latency_p50_us", p.ops.sorted().quantileUS(0.50), len(p.ops))
}

func (p *phase) roundWalls() []float64 {
	var w []float64
	for _, r := range p.rounds {
		w = append(w, r.wall.Seconds())
	}
	return w
}

// processMetrics reports what the whole child process cost the host.
func processMetrics(out metricSet) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out.put("bench.peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.put("bench.gc_cycles", float64(ms.NumGC), 1)
	out.put("bench.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
}
