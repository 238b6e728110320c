package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// measureLayers alternates untraced and traced crawls for the budget, then
// replays the first traced crawl's inputs through the codecs. It reports
// the per-layer metrics: medians over the traced crawls, except the
// runtime and resolve-cache figures, which come from the untraced ones.
func measureLayers(ctx context.Context, wl workload, seed uint64, budget time.Duration) (*result, error) {
	var cs crawlSeries
	var traced []tracedStats
	var in *inputs
	tracedAttempts, tracedFailed := 0, 0
	deadline := wallNow().Add(budget)
	for tracedAttempts < minCrawls || wallNow().Before(deadline) {
		ws := worldSeed(seed, tracedAttempts)
		cs.add(ctx, wl, ws)
		tracedAttempts++
		st, captured, err := crawlTraced(ctx, wl, ws, in == nil)
		if err != nil {
			tracedFailed++
			fmt.Fprintf(os.Stderr, "perfbench: %s world %d: traced crawl failed: %v\n", wl.name, ws, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s world %d (traced): %v nodes=%d\n", wl.name, ws, st.tally, st.nodes)
		if captured != nil {
			in = captured
		}
		traced = append(traced, st)
	}
	if len(cs.runs) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no crawl passed (%d untraced, %d traced attempted)", cs.attempted, tracedAttempts)
	}
	m, err := replay(in, seed)
	if err != nil {
		return nil, err
	}
	for name, f := range layerMetrics {
		v := make([]float64, len(traced))
		for i, st := range traced {
			v[i] = f.value(st)
		}
		m[name] = metric{median(v), f.unit}
	}
	m["proxynet.resolvecache.hit_frac"] = metric{cs.median(func(s crawlStats) float64 {
		return ratio(float64(s.cacheHits), float64(s.cacheLooks))
	}), "frac"}
	m["runtime.gc_cpu_frac"] = metric{cs.median(func(s crawlStats) float64 { return s.gcCPUFrac }), "frac"}
	m["runtime.gc_cycles_per_kprobe"] = metric{cs.median(func(s crawlStats) float64 {
		return 1000 * float64(s.gcCycles) / float64(s.tally.sessions)
	}), "count"}
	m["runtime.sched_wait_p99_us"] = metric{cs.median(func(s crawlStats) float64 { return s.schedP99 * 1e6 }), "us"}
	untraced := cs.median(crawlStats.probesPerSec)
	tracedPPS := make([]float64, len(traced))
	for i, st := range traced {
		tracedPPS[i] = st.probesPerSec()
	}
	m["bench.trace_overhead_frac"] = metric{1 - median(tracedPPS)/untraced, "frac"}

	attempted := cs.attempted + tracedAttempts
	failed := cs.failed + tracedFailed
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric is a per-layer figure computed from one traced crawl.
type layerMetric struct {
	unit  string
	value func(tracedStats) float64
}

// perCall is the mean duration in µs of calls that took d in total.
func perCall(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(calls)
}

// perProbe is a layer's time in µs per probe of the crawl.
func perProbe(d time.Duration, st tracedStats) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(st.tally.sessions)
}

// probeShare is a layer's share of all probe time.
func probeShare(d time.Duration, st tracedStats) float64 {
	return ratio(float64(d), float64(st.rec.total[layerProbe]))
}

var layerMetrics = map[string]layerMetric{
	"core.self_us_per_probe": {"us", func(st tracedStats) float64 { return perProbe(st.rec.self[layerProbe], st) }},
	"core.useful_frac": {"frac", func(st tracedStats) float64 {
		return float64(st.nodes) / float64(st.tally.sessions)
	}},
	"proxynet.superproxy.calls": {"count", func(st tracedStats) float64 { return float64(st.rec.calls[layerSuper]) }},
	"proxynet.superproxy.self_us_per_probe": {"us", func(st tracedStats) float64 {
		return perProbe(st.rec.self[layerSuper], st)
	}},
	"proxynet.pool.picks_per_request": {"ratio", func(st tracedStats) float64 {
		return ratio(float64(st.rec.calls[layerPick]), float64(st.rec.calls[layerSuper]))
	}},
	"proxynet.pool.pick_us": {"us", func(st tracedStats) float64 {
		return perCall(st.rec.total[layerPick], st.rec.calls[layerPick])
	}},
	"proxynet.exitnode.calls_per_probe": {"count", func(st tracedStats) float64 {
		return float64(st.rec.calls[layerExit]) / float64(st.tally.sessions)
	}},
	"proxynet.exitnode.resolves_per_probe": {"count", func(st tracedStats) float64 {
		return float64(st.rec.resolves.Load()) / float64(st.tally.sessions)
	}},
	"proxynet.exitnode.fetches_per_probe": {"count", func(st tracedStats) float64 {
		return float64(st.rec.fetches.Load()) / float64(st.tally.sessions)
	}},
	"proxynet.exitnode.tunnels_per_probe": {"count", func(st tracedStats) float64 {
		return float64(st.rec.tunnels.Load()) / float64(st.tally.sessions)
	}},
	"proxynet.exitnode.call_us": {"us", func(st tracedStats) float64 {
		return perCall(st.rec.total[layerExit], st.rec.calls[layerExit])
	}},
	"proxynet.exitnode.self_us_per_probe": {"us", func(st tracedStats) float64 {
		return perProbe(st.rec.self[layerExit], st)
	}},
	"proxynet.exitnode.err_frac": {"frac", func(st tracedStats) float64 {
		return ratio(float64(st.rec.exitErrs.Load()), float64(st.rec.calls[layerExit]))
	}},
	"dnsserver.authority.calls": {"count", func(st tracedStats) float64 { return float64(st.rec.calls[layerAuth]) }},
	"dnsserver.authority.time_frac": {"frac", func(st tracedStats) float64 {
		return probeShare(st.rec.self[layerAuth], st)
	}},
	"origin.web.calls": {"count", func(st tracedStats) float64 { return float64(st.rec.calls[layerWeb]) }},
	"origin.web.time_frac": {"frac", func(st tracedStats) float64 {
		return probeShare(st.rec.self[layerWeb], st)
	}},
	"analysis.analyze_ms": {"ms", func(st tracedStats) float64 { return ms(st.analyze) }},
	"analysis.tables_ms":  {"ms", func(st tracedStats) float64 { return ms(st.tables) }},
	"dataset.write_ms":    {"ms", func(st tracedStats) float64 { return ms(st.write) }},
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
