package main

import (
	"context"
	"fmt"

	"github.com/tftproject/tft"
	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/population"
)

// workers is the crawl concurrency of every workload: one per core of the
// two-core host the bounds were set on.
const workers = 2

// stopNever disables the crawl's stop rule: it would end a crawl only after
// a whole 400-session window found no new node, which the session caps
// below never come near. Work is then fixed by MaxSessions alone. (Zero
// would select the default rate.)
const stopNever = 1e-9

// workload is one fixed-work crawl: an experiment, a world scale and a
// session cap. The seed picks the world and the crawl's choices.
type workload struct {
	name     string
	scale    float64
	sessions int
	// run drives the shipped pipeline: world build, crawl, analysis.
	run func(context.Context, tft.Options) (tft.Run, error)
	// build, crawl and analyze are the same pipeline split at its phases,
	// so the traced crawl can wrap the world's layers before crawling it
	// and time the analysis on its own.
	build   func(seed uint64, scale float64) (*population.World, error)
	crawl   func(context.Context, *population.World, tft.Options) (tft.Run, error)
	analyze func(tft.Run)
	// check validates the run's headline against the paper's shape.
	check func(tft.Run) error
}

var workloads = []workload{
	{
		name: "dns-crawl", scale: 0.005, sessions: 10000,
		run:   func(ctx context.Context, o tft.Options) (tft.Run, error) { return tft.RunDNS(ctx, o) },
		build: population.BuildDNSWorld, crawl: crawlDNS, analyze: analyzeDNS, check: checkDNS,
	},
	{
		name: "http-objects", scale: 0.05, sessions: 1000,
		run:   func(ctx context.Context, o tft.Options) (tft.Run, error) { return tft.RunHTTP(ctx, o) },
		build: population.BuildHTTPWorld, crawl: crawlHTTP, analyze: analyzeHTTP, check: checkHTTP,
	},
	{
		name: "tls-tunnel", scale: 0.02, sessions: 3000,
		run:   func(ctx context.Context, o tft.Options) (tft.Run, error) { return tft.RunTLS(ctx, o) },
		build: population.BuildTLSWorld, crawl: crawlTLS, analyze: analyzeTLS, check: checkTLS,
	},
}

// worldSeed is the seed of a run's i-th world. Each crawl of a run gets a
// world of its own, so a run's medians average over many worlds instead of
// resting on the quirks of one: a world's count of certificate-replacing
// nodes alone moves the TLS tail latency by half. The same run seed always
// yields the same sequence of worlds.
func worldSeed(seed uint64, i int) uint64 { return seed<<20 + uint64(i) }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the pipeline configuration every crawl of the workload uses.
func (wl workload) options(seed uint64, crawl core.CrawlConfig) tft.Options {
	crawl.Workers = workers
	crawl.MaxSessions = wl.sessions
	crawl.StopNewRate = stopNever
	return tft.Options{Seed: seed, Scale: wl.scale, Crawl: crawl}
}

// The crawl* and analyze* functions repeat what tft.Run{DNS,HTTP,TLS} do
// after the world is built, minus the instrumentation the caller has
// already wired. A crawl's run has no Analysis until analyze fills it.

func crawlDNS(ctx context.Context, w *population.World, o tft.Options) (tft.Run, error) {
	exp := &core.DNSExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(),
		Seed: o.Seed, Crawl: o.Crawl,
	}
	exp.InstallRules(population.WebIP)
	ds, err := exp.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &tft.DNSRun{Opts: o, World: w, Dataset: ds}, nil
}

func analyzeDNS(r tft.Run) {
	run := r.(*tft.DNSRun)
	run.Analysis = analysis.AnalyzeDNS(analysis.Config{Scale: run.Opts.Scale}, run.World.Geo, run.Dataset)
}

func crawlHTTP(ctx context.Context, w *population.World, o tft.Options) (tft.Run, error) {
	exp := &core.HTTPExperiment{
		Client: w.Client, Auth: w.Auth, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(),
		Seed: o.Seed, Crawl: o.Crawl,
	}
	exp.InstallRules(population.WebIP)
	ds, err := exp.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &tft.HTTPRun{Opts: o, World: w, Dataset: ds}, nil
}

func analyzeHTTP(r tft.Run) {
	run := r.(*tft.HTTPRun)
	run.Analysis = analysis.AnalyzeHTTP(analysis.Config{Scale: run.Opts.Scale}, run.World.Geo, run.Dataset)
}

func crawlTLS(ctx context.Context, w *population.World, o tft.Options) (tft.Run, error) {
	exp := &core.TLSExperiment{
		Client: w.Client, Geo: w.Geo, Trust: w.Trust,
		Targets: core.TargetsFromRegistry(w.Sites),
		Weights: w.Pool.CountryCounts(),
		Seed:    o.Seed, Crawl: o.Crawl,
		Now: w.Clock.Now,
	}
	ds, err := exp.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &tft.TLSRun{Opts: o, World: w, Dataset: ds}, nil
}

func analyzeTLS(r tft.Run) {
	run := r.(*tft.TLSRun)
	run.Analysis = analysis.AnalyzeTLS(analysis.Config{Scale: run.Opts.Scale}, run.World.Geo, run.Dataset)
}

// tally is a crawl's outcome count: every session ends in exactly one.
type tally struct {
	sessions, ok, duplicate, failed, discarded, faulted int
}

func (t tally) String() string {
	return fmt.Sprintf("sessions=%d ok=%d duplicate=%d failed=%d discarded=%d faulted=%d",
		t.sessions, t.ok, t.duplicate, t.failed, t.discarded, t.faulted)
}

// notOK counts the sessions that yielded no measurement.
func (t tally) notOK() int { return t.failed + t.discarded + t.faulted }

func tallyOf(r tft.Run) tally {
	switch r := r.(type) {
	case *tft.DNSRun:
		d := r.Dataset
		return tally{d.Crawl.Sessions, len(d.Observations), d.Duplicates, d.Failures, d.Discarded, d.Faults}
	case *tft.HTTPRun:
		d := r.Dataset
		return tally{d.Crawl.Sessions, len(d.Observations), d.Duplicates, d.Failures, d.SkippedQuota, d.Faults}
	case *tft.TLSRun:
		d := r.Dataset
		return tally{d.Crawl.Sessions, len(d.Observations), d.Duplicates, d.Failures, d.Discarded, d.Faults}
	}
	panic(fmt.Sprintf("perfbench: unexpected run type %T", r))
}

// checkRun validates one crawl's output: the work is the fixed session cap,
// every session has exactly one outcome, some nodes were measured, and the
// headline keeps the paper's shape.
func checkRun(wl workload, r tft.Run) error {
	st := r.Stats()
	t := tallyOf(r)
	switch {
	case st.Sessions != wl.sessions || st.StoppedByRule:
		return fmt.Errorf("crawl ran %d sessions (stopped by rule: %v), want the cap %d",
			st.Sessions, st.StoppedByRule, wl.sessions)
	case t.ok+t.duplicate+t.failed+t.discarded+t.faulted != t.sessions:
		return fmt.Errorf("outcomes do not add up: %v", t)
	case st.UniqueNodes <= 0 || t.ok <= 0:
		return fmt.Errorf("no nodes measured: %v", t)
	}
	return wl.check(r)
}

// The headline bounds are report.go's shape checks for the experiment,
// including its widening below 4% scale, where named violator groups are
// floored at three nodes.

func checkDNS(r tft.Run) error {
	run := r.(*tft.DNSRun)
	loose := 1.0
	if run.Opts.Scale < 0.04 {
		loose = 3.0
	}
	s := run.Analysis.Summary()
	if !(s.HijackPct > 3.0 && s.HijackPct < 6.5*loose) {
		return fmt.Errorf("NXDOMAIN hijack share %.2f%% outside (3%%, %.1f%%)", s.HijackPct, 6.5*loose)
	}
	return nil
}

func checkHTTP(r tft.Run) error {
	if s := r.(*tft.HTTPRun).Analysis.Summary(); s.HTMLModified <= 0 {
		return fmt.Errorf("no modified HTML among %d nodes", s.MeasuredNodes)
	}
	return nil
}

func checkTLS(r tft.Run) error {
	if s := r.(*tft.TLSRun).Analysis.Summary(); s.Affected <= 0 {
		return fmt.Errorf("no replaced certificates among %d nodes", s.MeasuredNodes)
	}
	return nil
}
