package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tftproject/tft/internal/core"
	tftmetrics "github.com/tftproject/tft/internal/metrics"
)

// probeHistogram is the crawl engine's per-probe latency histogram, fed
// from CrawlConfig.Now.
const probeHistogram = "probe_duration_seconds"

// latencyBounds replaces the engine's decade buckets for probeHistogram:
// the registry keeps the first bounds a histogram is registered with, so
// pre-registering these gives 2%-wide buckets from 1 µs to 10 s and
// quantiles within 2% of the true value.
var latencyBounds = func() []float64 {
	var b []float64
	for v := 1e-6; v < 10; v *= 1.02 {
		b = append(b, v)
	}
	return b
}()

// newRegistry is a crawl's metrics registry with the fine latency buckets.
func newRegistry() *tftmetrics.Registry {
	reg := tftmetrics.NewRegistry()
	reg.Histogram(probeHistogram, latencyBounds)
	return reg
}

// sample is a reading of the process's CPU time and runtime counters.
type sample struct {
	at         time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate, seconds
	totalCPU   float64 // runtime estimate, seconds
	sched      *metrics.Float64Histogram
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeSample(at time.Time) sample {
	s := sample{at: at}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.allocObjs = ms[1].Value.Uint64()
	s.gcCycles = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	s.totalCPU = ms[4].Value.Float64()
	s.sched = ms[5].Value.Float64Histogram()
	return s
}

// probeClock is the crawl's CrawlConfig.Now: a wall clock that also samples
// the process at the first call (the first probe's start) and at call
// 2×sessions (the last probe's end), bracketing the crawl phase. In between
// it reads the heap size at most once per heapEvery and keeps the peak; the
// read runs inline on the calling crawl worker, because a sampling
// goroutine's wakeups slowed the crawl by several percent.
type probeClock struct {
	calls      atomic.Int64
	last       int64
	start, end sample

	heapAt atomic.Int64 // UnixNano of the last heap read
	heapMu sync.Mutex
	heap   []metrics.Sample
	peak   uint64 // guarded by heapMu
}

// heapEvery is the peak-heap sampling interval.
const heapEvery = time.Millisecond

func newProbeClock(sessions int) *probeClock {
	return &probeClock{last: 2 * int64(sessions),
		heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (c *probeClock) now() time.Time {
	t := wallNow()
	switch c.calls.Add(1) {
	case 1:
		c.start = takeSample(t)
	case c.last:
		c.end = takeSample(t)
	}
	if ns := t.UnixNano(); ns-c.heapAt.Load() >= int64(heapEvery) && c.heapMu.TryLock() {
		c.heapAt.Store(ns)
		metrics.Read(c.heap)
		c.peak = max(c.peak, c.heap[0].Value.Uint64())
		c.heapMu.Unlock()
	}
	return t
}

// crawlStats are one crawl's measurements.
type crawlStats struct {
	crawl, wall time.Duration
	tally       tally
	nodes       int
	latency     tftmetrics.HistogramSnapshot // per-probe seconds
	cpu         time.Duration
	allocBytes  uint64
	allocObjs   uint64
	peakHeap    uint64
	gcCycles    uint64
	gcCPUFrac   float64
	schedP99    float64 // seconds
	cacheHits   int64   // super-proxy resolve-cache hits
	cacheLooks  int64   // and lookups
	checkErr    error
}

func (s crawlStats) probesPerSec() float64 { return float64(s.tally.sessions) / s.crawl.Seconds() }

// crawlUntraced runs the shipped pipeline once, from world build to
// rendered tables, and checks its output. An error means the pipeline
// itself failed; a failed output check is reported in checkErr.
func crawlUntraced(ctx context.Context, wl workload, seed uint64) (crawlStats, error) {
	runtime.GC()
	clk := newProbeClock(wl.sessions)
	opts := wl.options(seed, core.CrawlConfig{Metrics: newRegistry(), Now: clk.now})
	began := wallNow()
	r, err := wl.run(ctx, opts)
	if err == nil {
		for _, t := range r.Tables() {
			_ = t.String()
		}
	}
	wall := wallSince(began)
	if err != nil {
		return crawlStats{}, err
	}
	if clk.end.at.IsZero() {
		clk.end = takeSample(began.Add(wall))
	}
	st := crawlStats{
		crawl:      clk.end.at.Sub(clk.start.at),
		wall:       wall,
		tally:      tallyOf(r),
		nodes:      r.Stats().UniqueNodes,
		cpu:        clk.end.cpu - clk.start.cpu,
		allocBytes: clk.end.allocBytes - clk.start.allocBytes,
		allocObjs:  clk.end.allocObjs - clk.start.allocObjs,
		peakHeap:   clk.peak,
		gcCycles:   clk.end.gcCycles - clk.start.gcCycles,
		schedP99:   histQuantile(clk.start.sched, clk.end.sched, 0.99),
		checkErr:   checkRun(wl, r),
	}
	snap := r.Metrics()
	st.cacheHits = snap.Counter("proxy_dns_cache_hits_total")
	st.cacheLooks = st.cacheHits + snap.Counter("proxy_dns_cache_misses_total") +
		snap.Counter("proxy_dns_cache_coalesced_total")
	if d := clk.end.totalCPU - clk.start.totalCPU; d > 0 {
		st.gcCPUFrac = (clk.end.gcCPU - clk.start.gcCPU) / d
	}
	st.latency = snap.Histograms[probeHistogram]
	if st.checkErr == nil && st.latency.Count != int64(st.tally.sessions) {
		st.checkErr = fmt.Errorf("probe histogram holds %d probes, want %d", st.latency.Count, st.tally.sessions)
	}
	return st, nil
}

// histQuantile is the q-quantile of the observations added to a runtime
// histogram between two readings, interpolated linearly within its bucket.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range after.Counts {
		c := float64(after.Counts[i] - before.Counts[i])
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(rank-cum)/c
	}
	return 0
}

// crawlSeries runs untraced crawls and records their outcome.
type crawlSeries struct {
	runs               []crawlStats // crawls whose output checks passed
	attempted, failed  int
	sessions, okProbes int
}

func (cs *crawlSeries) add(ctx context.Context, wl workload, seed uint64) {
	cs.attempted++
	cs.sessions += wl.sessions
	st, err := crawlUntraced(ctx, wl, seed)
	if err == nil {
		err = st.checkErr
	}
	if err != nil {
		cs.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s world %d: crawl failed: %v\n", wl.name, seed, err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s world %d: %v nodes=%d\n", wl.name, seed, st.tally, st.nodes)
	cs.runs = append(cs.runs, st)
	cs.okProbes += st.tally.sessions - st.tally.notOK()
}

// median of f over the series' passing crawls.
func (cs *crawlSeries) median(f func(crawlStats) float64) float64 {
	v := make([]float64, len(cs.runs))
	for i, r := range cs.runs {
		v[i] = f(r)
	}
	return median(v)
}

// latency pools the probe latencies of the series' passing crawls.
func (cs *crawlSeries) latency() tftmetrics.HistogramSnapshot {
	var h tftmetrics.HistogramSnapshot
	for _, r := range cs.runs {
		if h.Counts == nil {
			h.Bounds = r.latency.Bounds
			h.Counts = make([]int64, len(r.latency.Counts))
		}
		for i, c := range r.latency.Counts {
			h.Counts[i] += c
		}
		h.Count += r.latency.Count
	}
	return h
}

// minCrawls is the fewest crawls a run makes, so every median has at
// least three values behind it.
const minCrawls = 3

// A run builds the workload's world at least setupRuns times and for at
// least setupTime, so even a world that builds in 2 ms has a steady median.
// Builds run back to back: forcing a GC before each one made the median of
// the 2 ms builds swing by a third between runs.
const (
	setupRuns = 25
	setupTime = time.Second
)

// measureSetup is the median time to build the workload's world.
func measureSetup(wl workload, seed uint64) (float64, error) {
	var v []float64
	for start := wallNow(); len(v) < setupRuns || wallSince(start) < setupTime; {
		t := wallNow()
		if _, err := wl.build(worldSeed(seed, len(v)), wl.scale); err != nil {
			return 0, fmt.Errorf("building world: %w", err)
		}
		v = append(v, wallSince(t).Seconds())
	}
	return median(v), nil
}

func measureEndToEnd(ctx context.Context, wl workload, seed uint64, budget time.Duration) (*result, error) {
	setup, err := measureSetup(wl, seed)
	if err != nil {
		return nil, err
	}
	var cs crawlSeries
	deadline := wallNow().Add(budget)
	for cs.attempted < minCrawls || wallNow().Before(deadline) {
		cs.add(ctx, wl, worldSeed(seed, cs.attempted))
	}
	if len(cs.runs) == 0 {
		return nil, fmt.Errorf("all %d crawls failed", cs.attempted)
	}
	us := func(d float64) float64 { return d * 1e6 }
	lat := cs.latency()
	m := map[string]metric{
		"probes_per_s": {cs.median(crawlStats.probesPerSec), "1/s"},
		"nodes_per_s": {cs.median(func(s crawlStats) float64 {
			return float64(s.nodes) / s.crawl.Seconds()
		}), "1/s"},
		"probe_p50_us": {us(lat.Quantile(0.50)), "us"},
		"probe_p95_us": {us(lat.Quantile(0.95)), "us"},
		"cpu_us_per_probe": {cs.median(func(s crawlStats) float64 {
			return us(s.cpu.Seconds()) / float64(s.tally.sessions)
		}), "us"},
		"alloc_bytes_per_probe": {cs.median(func(s crawlStats) float64 {
			return float64(s.allocBytes) / float64(s.tally.sessions)
		}), "B"},
		"allocs_per_probe": {cs.median(func(s crawlStats) float64 {
			return float64(s.allocObjs) / float64(s.tally.sessions)
		}), "count"},
		"peak_heap_mb": {cs.median(func(s crawlStats) float64 { return float64(s.peakHeap) / 1e6 }), "MB"},
		"setup_s":      {setup, "s"},
		"wall_s":       {cs.median(func(s crawlStats) float64 { return s.wall.Seconds() }), "s"},
		"ok_frac":      {float64(cs.okProbes) / float64(cs.sessions), "frac"},
	}
	return &result{Correct: cs.failed == 0, Attempted: cs.attempted, Failed: cs.failed, Metrics: m}, nil
}
