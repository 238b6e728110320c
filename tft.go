// Package tft reproduces "Tunneling for Transparency: A Large-Scale
// Analysis of End-to-End Violations in the Internet" (IMC 2016): it builds
// a calibrated synthetic Internet with a Luminati-style P2P proxy service
// on top, runs the paper's four measurement experiments through it, and
// regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	run, err := tft.RunDNS(context.Background(), tft.Options{Seed: 1, Scale: 0.05})
//	_, t3 := run.Analysis.Table3(10)
//	fmt.Println(t3)
//
// Scale 1.0 reproduces full paper scale (1.27M nodes across the four
// experiments); the default 0.05 runs in seconds on a laptop with the same
// table shapes.
//
// Every experiment satisfies the Run interface: uniform access to the
// rendered tables, the crawl statistics, and a metrics snapshot of the
// instrumented crawl engine (sessions, novelty, stop-rule trajectory,
// per-country coverage, violations).
package tft

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dataset"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// Options selects a world and crawl configuration.
type Options struct {
	// Seed drives every stochastic choice; a (Seed, Scale) pair reproduces
	// a run exactly.
	Seed uint64
	// Scale multiplies the paper's population sizes (0 < Scale <= 1;
	// default 0.05).
	Scale float64
	// Workers is the measurement concurrency (default 8). Precedence: a
	// non-zero Crawl.Workers wins over this field; Workers only applies
	// when Crawl.Workers is unset.
	Workers int
	// Crawl overrides the stop-rule parameters when non-zero. A non-zero
	// Crawl.Workers takes precedence over Options.Workers. When
	// Crawl.Metrics is nil, each Run* call installs a fresh registry so
	// every run exposes a Metrics() snapshot.
	Crawl core.CrawlConfig
	// Chaos names a fault-injection profile (simnet.ProfileNames) to arm on
	// the world's fabric; it also installs the super proxy's per-exit
	// circuit breaker. Empty (the default) runs fault-free and is
	// byte-identical to builds without the chaos plane. The injection
	// schedule is a pure function of (Seed, Scale, Chaos).
	Chaos string
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 20160413
	}
	o.Crawl.Workers = resolveWorkers(o.Workers, o.Crawl.Workers)
	return o
}

// resolveWorkers collapses the Options.Workers vs Crawl.Workers precedence
// into one place: an explicitly-set Crawl.Workers wins, Options.Workers is
// the convenience knob for callers who leave Crawl untouched, and zero
// defers to the crawl engine's default.
func resolveWorkers(optWorkers, crawlWorkers int) int {
	if crawlWorkers > 0 {
		return crawlWorkers
	}
	return optWorkers
}

// wallNow stamps run manifests. Manifests are operator-facing run records
// (when did this campaign actually execute), so they use the wall clock by
// contract and are excluded from all determinism comparisons.
func wallNow() time.Time {
	//tftlint:ignore simclock -- manifest timestamps are operator-facing wall-clock metadata, never part of measured output
	return time.Now()
}

// buildManifest closes a run's flight-recorder record from the crawl stats
// and the tracker's final counts. Called at the end of each Run* while the
// tracker still holds that crawl's state (a shared tracker is reset by the
// next run's Begin).
func (o Options) buildManifest(name string, st core.Stats, started, finished time.Time) *progress.RunManifest {
	snap := o.Crawl.Progress.Snapshot()
	wm := o.Crawl.Progress.CaptureWatermarks()
	workers := o.Crawl.Workers
	if snap.Workers > 0 {
		workers = snap.Workers // crawler-resolved count, after defaults
	}
	return &progress.RunManifest{
		Experiment:      name,
		Seed:            o.Seed,
		Scale:           o.Scale,
		Workers:         workers,
		Shards:          snap.Workers,
		StartedAt:       started,
		FinishedAt:      finished,
		DurationSeconds: finished.Sub(started).Seconds(),
		Sessions:        int64(st.Sessions),
		UniqueNodes:     int64(st.UniqueNodes),
		NodesDone:       snap.Done,
		TotalNodes:      snap.TotalNodes,
		Probes:          snap.Probes,
		Violations:      snap.Violations,
		Failures:        snap.Failures,
		Discarded:       snap.Discarded,
		Duplicates:      snap.Duplicates,
		Faults:          snap.Faults,
		StoppedByRule:   st.StoppedByRule,
		Stalls:          snap.Stalls,
		Watermarks:      wm,
	}
}

func (o Options) cfg() analysis.Config { return analysis.Config{Scale: o.Scale} }

// faultLine is the error-budget suffix shared by every Headline. It is
// empty when the run lost no probes to transport faults, so fault-free
// output is byte-identical to builds without the chaos plane.
func faultLine(st core.Stats) string {
	if st.Faulted == 0 {
		return ""
	}
	return fmt.Sprintf("   error budget: %d probes lost to transport faults (excluded from violation rates)\n", st.Faulted)
}

// Run is the uniform view over one experiment's results: every experiment
// (DNS, HTTP, TLS, monitoring, SMTP) exposes its rendered paper tables,
// its crawl statistics, and the instrumented crawl engine's metrics
// snapshot through the same three calls. Consumers (Results.Overview,
// Results.Dump, cmd/tft) iterate over Runs instead of repeating
// per-experiment code.
type Run interface {
	// Name is the run's release identifier ("dns", "http", "tls",
	// "monitor", "smtp") — also the dataset file stem in a Dump.
	Name() string
	// Tables renders the run's paper artifacts.
	Tables() []*analysis.Table
	// Stats summarises the crawl that produced the run.
	Stats() core.Stats
	// Metrics snapshots the run's crawl-engine telemetry.
	Metrics() *metrics.Snapshot
	// Spans returns the finished request spans retained by the run's
	// tracer — the per-request trace trees behind -trace/-trace-jsonl.
	Spans() []trace.SpanData
	// Headline is the one-line summary the CLI prints above the tables.
	Headline() string
	// Overview is the run's Table-2 coverage row.
	Overview() analysis.DatasetOverview

	// WriteDataset and WriteGeo serialize the run and its geo snapshot for
	// the release dump — the exported surface cmd/analyze and external
	// consumers rebuild every table from.
	WriteDataset(w io.Writer) error
	WriteGeo(w io.Writer) error

	// Manifest is the run's flight-recorder closing record (seed, scale,
	// workers, duration, final counts, peak watermarks); WriteManifest
	// serializes it as indented JSON. Results.Dump collects the campaign's
	// manifests into manifest.json.
	Manifest() *progress.RunManifest
	WriteManifest(w io.Writer) error
}

// experiment is implemented by one zero-size type per experiment; its spec
// is everything a run does differently from the others.
type experiment[D, A any] interface {
	spec() runSpec[D, A]
}

// runSpec is one experiment's part of a run: how its world is built and
// crawled into a dataset D, and how D and its analysis A render.
type runSpec[D, A any] struct {
	name    string
	build   func(seed uint64, scale float64) (*population.World, error)
	crawl   func(ctx context.Context, w *population.World, o Options) (*D, error)
	analyze func(cfg analysis.Config, g *geo.Registry, d *D) *A
	stats   func(d *D) core.Stats
	tables  func(a *A) []*analysis.Table
	// headline is the CLI summary, less the error-budget line.
	headline     func(d *D, a *A) string
	overview     func(a *A) analysis.DatasetOverview
	writeDataset func(w io.Writer, seed uint64, scale float64, d *D) error
}

// expRun bundles one experiment's world, dataset, and analysis. DNSRun,
// HTTPRun, TLSRun, MonitorRun and SMTPRun name its five instances.
type expRun[E experiment[D, A], D, A any] struct {
	Opts     Options
	World    *population.World
	Dataset  *D
	Analysis *A

	reg    *metrics.Registry
	tracer *trace.Tracer
	man    *progress.RunManifest
}

type (
	// DNSRun bundles the §4 experiment: NXDOMAIN hijacking.
	DNSRun = expRun[dnsExp, core.DNSDataset, analysis.DNSAnalysis]
	// HTTPRun bundles the §5 experiment: content modification.
	HTTPRun = expRun[httpExp, core.HTTPDataset, analysis.HTTPAnalysis]
	// TLSRun bundles the §6 experiment: certificate replacement.
	TLSRun = expRun[tlsExp, core.TLSDataset, analysis.TLSAnalysis]
	// MonitorRun bundles the §7 experiment: content monitoring.
	MonitorRun = expRun[monExp, core.MonDataset, analysis.MonAnalysis]
	// SMTPRun bundles the §3.4 extension experiment: SMTP probing through
	// an arbitrary-port tunnel service, implementing the paper's stated
	// future work.
	SMTPRun = expRun[smtpExp, core.SMTPDataset, analysis.SMTPAnalysis]
)

// RunDNS builds a DNS world and runs the NXDOMAIN-hijack experiment.
func RunDNS(ctx context.Context, opts Options) (*DNSRun, error) { return new(DNSRun).start(ctx, opts) }

// RunHTTP builds an HTTP world and runs the content-modification
// experiment.
func RunHTTP(ctx context.Context, opts Options) (*HTTPRun, error) {
	return new(HTTPRun).start(ctx, opts)
}

// RunTLS builds a TLS world and runs the certificate-replacement
// experiment.
func RunTLS(ctx context.Context, opts Options) (*TLSRun, error) { return new(TLSRun).start(ctx, opts) }

// RunMonitor builds a monitoring world and runs the content-monitoring
// experiment (24 virtual hours of server-log watching).
func RunMonitor(ctx context.Context, opts Options) (*MonitorRun, error) {
	return new(MonitorRun).start(ctx, opts)
}

// RunSMTP builds the extension world (a VPN allowing any CONNECT port) and
// probes the measurement mail server through every node, detecting port-25
// blocking and STARTTLS stripping.
func RunSMTP(ctx context.Context, opts Options) (*SMTPRun, error) {
	return new(SMTPRun).start(ctx, opts)
}

// setup builds a run's world and wires it for the crawl.
//
// It ensures the run has a metrics registry and a span tracer, and threads
// both into the world's service side: the registry into the super proxy,
// the tracer into the super proxy and every exit node, so one measured
// request yields one complete span tree. The tracer runs on the world's
// virtual clock, so span durations are in simulated time.
//
// When Options.Chaos names a profile, setup then arms the world's fault
// plane and the proxy-side hardening. With Chaos empty it arms nothing: the
// breaker is only installed under chaos, so a fault-free run stays
// byte-identical to a build without the chaos plane.
func (o *Options) setup(build func(seed uint64, scale float64) (*population.World, error)) (*population.World, error) {
	w, err := build(o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	if o.Crawl.Metrics == nil {
		o.Crawl.Metrics = metrics.NewRegistry()
	}
	if o.Crawl.Progress == nil {
		// Always install a flight recorder so every run carries a populated
		// manifest; the tracker never touches the crawl's RNG or measured
		// output, so a fixed-seed run is byte-identical with or without it.
		o.Crawl.Progress = progress.NewTracker()
	}
	if o.Crawl.Tracer == nil {
		o.Crawl.Tracer = trace.New(w.Clock.Now, 0)
	}
	if w.Super.Metrics == nil {
		w.Super.Metrics = o.Crawl.Metrics
	}
	if w.Super.Tracer == nil {
		w.Super.Tracer = o.Crawl.Tracer
	}
	tracer, clock := o.Crawl.Tracer, w.Clock
	w.Pool.SetPrepare(func(n *proxynet.ExitNode) {
		if n.Tracer == nil {
			n.Tracer = tracer
		}
		if n.Clock == nil {
			n.Clock = clock
		}
	})
	if lp, ok := w.Pool.(*proxynet.LazyPool); ok {
		lp.SetMetrics(o.Crawl.Metrics)
	}

	if o.Chaos == "" {
		return w, nil
	}
	prof, ok := simnet.ProfileByName(o.Chaos)
	if !ok {
		return nil, fmt.Errorf("unknown chaos profile %q (have %v)", o.Chaos, simnet.ProfileNames())
	}
	plane := simnet.NewFaultPlane(prof, o.Seed, w.Clock)
	faults := o.Crawl.Metrics.Labeled("fault_injected_total")
	plane.OnInject(func(kind string) { faults.Inc(kind) })
	w.Fabric.Faults = plane
	w.Super.Health = proxynet.NewHealthTracker(w.Clock, o.Seed, o.Crawl.Metrics)
	return w, nil
}

// start builds the experiment's world, crawls it and analyses the dataset
// into r. It returns r, or nil and the error.
func (r *expRun[E, D, A]) start(ctx context.Context, opts Options) (*expRun[E, D, A], error) {
	sp := r.spec()
	opts = opts.withDefaults()
	started := wallNow()
	w, err := opts.setup(sp.build)
	if err != nil {
		return nil, err
	}
	ds, err := sp.crawl(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	*r = expRun[E, D, A]{Opts: opts, World: w, Dataset: ds,
		Analysis: sp.analyze(opts.cfg(), w.Geo, ds),
		reg:      opts.Crawl.Metrics, tracer: opts.Crawl.Tracer,
		man: opts.buildManifest(sp.name, sp.stats(ds), started, wallNow())}
	return r, nil
}

func (*expRun[E, D, A]) spec() runSpec[D, A] {
	var e E
	return e.spec()
}

// Name implements Run.
func (r *expRun[E, D, A]) Name() string { return r.spec().name }

// Tables renders the run's paper artifacts.
func (r *expRun[E, D, A]) Tables() []*analysis.Table { return r.spec().tables(r.Analysis) }

// Stats summarises the crawl.
func (r *expRun[E, D, A]) Stats() core.Stats { return r.spec().stats(r.Dataset) }

// Metrics snapshots the run's crawl telemetry.
func (r *expRun[E, D, A]) Metrics() *metrics.Snapshot { return r.reg.Snapshot() }

// Spans returns the run's retained request spans.
func (r *expRun[E, D, A]) Spans() []trace.SpanData { return r.tracer.Spans() }

// Headline is the CLI summary.
func (r *expRun[E, D, A]) Headline() string {
	return r.spec().headline(r.Dataset, r.Analysis) + faultLine(r.Stats())
}

// Overview is the Table-2 row.
func (r *expRun[E, D, A]) Overview() analysis.DatasetOverview { return r.spec().overview(r.Analysis) }

// WriteDataset serializes the run's dataset for the release dump.
func (r *expRun[E, D, A]) WriteDataset(w io.Writer) error {
	return r.spec().writeDataset(w, r.Opts.Seed, r.Opts.Scale, r.Dataset)
}

// WriteGeo serializes the run world's geo snapshot for the release dump.
func (r *expRun[E, D, A]) WriteGeo(w io.Writer) error {
	return dataset.WriteGeo(w, r.Opts.Seed, r.Opts.Scale, r.World.Geo)
}

// Manifest returns the run's flight-recorder manifest: seed, scale,
// workers, duration, final counts, and peak runtime watermarks.
func (r *expRun[E, D, A]) Manifest() *progress.RunManifest { return r.man }

// WriteManifest serializes the manifest as indented JSON.
func (r *expRun[E, D, A]) WriteManifest(w io.Writer) error {
	if r.man == nil {
		return nil
	}
	return r.man.Write(w)
}

type dnsExp struct{}

func (dnsExp) spec() runSpec[core.DNSDataset, analysis.DNSAnalysis] {
	return runSpec[core.DNSDataset, analysis.DNSAnalysis]{
		name: "dns", build: population.BuildDNSWorld,
		analyze: analysis.AnalyzeDNS, writeDataset: dataset.WriteDNS,
		crawl: func(ctx context.Context, w *population.World, o Options) (*core.DNSDataset, error) {
			return newDNSExperiment(w, o).Run(ctx)
		},
		stats: func(d *core.DNSDataset) core.Stats { return d.Crawl },
		tables: func(a *analysis.DNSAnalysis) []*analysis.Table {
			_, t3 := a.Table3(10)
			_, t4 := a.Table4()
			_, t5 := a.Table5()
			return []*analysis.Table{t3, t4, t5}
		},
		headline: func(_ *core.DNSDataset, a *analysis.DNSAnalysis) string {
			s := a.Summary()
			rs := a.ResolverStats()
			return fmt.Sprintf("== DNS (§4): %d nodes measured (%d filtered shared-anycast), %d resolvers, %d countries, %d ASes\n"+
				"   servers: %d total, %d above threshold; ISP-provided %d (%d above threshold, %d hijacking)\n"+
				"   hijacked: %d (%.1f%%); attribution: %v\n",
				s.MeasuredNodes, s.FilteredAnycast, s.UniqueResolvers, s.Countries, s.ASes,
				rs.TotalServers, rs.AboveThreshold, rs.ISPServers, rs.ISPAboveThreshold, rs.HijackingISP,
				s.Hijacked, s.HijackPct, s.Attribution)
		},
		overview: func(a *analysis.DNSAnalysis) analysis.DatasetOverview {
			s := a.Summary()
			return analysis.DatasetOverview{Name: "DNS",
				Nodes: s.MeasuredNodes + s.FilteredAnycast, ASes: s.ASes, Countries: s.Countries}
		},
	}
}

// newDNSExperiment wires the §4 experiment over a DNS world, with its
// d1/d2 resolution rules installed.
func newDNSExperiment(w *population.World, o Options) *core.DNSExperiment {
	exp := &core.DNSExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(),
		Seed: o.Seed, Crawl: o.Crawl,
	}
	exp.InstallRules(population.WebIP)
	return exp
}

type httpExp struct{}

func (httpExp) spec() runSpec[core.HTTPDataset, analysis.HTTPAnalysis] {
	return runSpec[core.HTTPDataset, analysis.HTTPAnalysis]{
		name: "http", build: population.BuildHTTPWorld,
		analyze: analysis.AnalyzeHTTP, writeDataset: dataset.WriteHTTP,
		crawl: func(ctx context.Context, w *population.World, o Options) (*core.HTTPDataset, error) {
			exp := &core.HTTPExperiment{
				Client: w.Client, Auth: w.Auth, Geo: w.Geo,
				Zone: population.Zone, Weights: w.Pool.CountryCounts(),
				Seed: o.Seed, Crawl: o.Crawl,
			}
			exp.InstallRules(population.WebIP)
			return exp.Run(ctx)
		},
		stats: func(d *core.HTTPDataset) core.Stats { return d.Crawl },
		tables: func(a *analysis.HTTPAnalysis) []*analysis.Table {
			_, t6 := a.Table6()
			_, t7 := a.Table7()
			return []*analysis.Table{t6, t7}
		},
		headline: func(d *core.HTTPDataset, a *analysis.HTTPAnalysis) string {
			s := a.Summary()
			return fmt.Sprintf("== HTTP (§5): %d nodes, %d ASes, %d countries; crawl skipped %d by AS quota\n"+
				"   HTML modified %d (injected %d, block pages %d), images %d, JS %d, CSS %d\n",
				s.MeasuredNodes, s.ASes, s.Countries, d.SkippedQuota,
				s.HTMLModified, s.HTMLInjected, s.HTMLBlockPage, s.ImageModified, s.JSReplaced, s.CSSReplaced)
		},
		overview: func(a *analysis.HTTPAnalysis) analysis.DatasetOverview {
			s := a.Summary()
			return analysis.DatasetOverview{Name: "HTTP", Nodes: s.MeasuredNodes, ASes: s.ASes, Countries: s.Countries}
		},
	}
}

type tlsExp struct{}

func (tlsExp) spec() runSpec[core.TLSDataset, analysis.TLSAnalysis] {
	return runSpec[core.TLSDataset, analysis.TLSAnalysis]{
		name: "tls", build: population.BuildTLSWorld,
		analyze: analysis.AnalyzeTLS, writeDataset: dataset.WriteTLS,
		crawl: func(ctx context.Context, w *population.World, o Options) (*core.TLSDataset, error) {
			exp := &core.TLSExperiment{
				Client: w.Client, Geo: w.Geo, Trust: w.Trust,
				Targets: core.TargetsFromRegistry(w.Sites),
				Weights: w.Pool.CountryCounts(),
				Seed:    o.Seed, Crawl: o.Crawl,
				Now: w.Clock.Now,
			}
			return exp.Run(ctx)
		},
		stats: func(d *core.TLSDataset) core.Stats { return d.Crawl },
		tables: func(a *analysis.TLSAnalysis) []*analysis.Table {
			_, t8 := a.Table8()
			return []*analysis.Table{t8}
		},
		headline: func(d *core.TLSDataset, a *analysis.TLSAnalysis) string {
			s := a.Summary()
			return fmt.Sprintf("== HTTPS (§6): %d nodes, %d ASes, %d countries; %d CONNECT tunnels\n"+
				"   replaced certificates on %d nodes (%.2f%%); selective on %d; ASes >10%% affected: %.1f%%\n",
				s.MeasuredNodes, s.ASes, s.Countries, d.Probes,
				s.Affected, s.AffectedPct, s.SelectiveNodes, s.HighASShare)
		},
		overview: func(a *analysis.TLSAnalysis) analysis.DatasetOverview {
			s := a.Summary()
			return analysis.DatasetOverview{Name: "HTTPS", Nodes: s.MeasuredNodes, ASes: s.ASes, Countries: s.Countries}
		},
	}
}

type monExp struct{}

func (monExp) spec() runSpec[core.MonDataset, analysis.MonAnalysis] {
	return runSpec[core.MonDataset, analysis.MonAnalysis]{
		name: "monitor", build: population.BuildMonitorWorld,
		analyze: analysis.AnalyzeMonitor, writeDataset: dataset.WriteMonitor,
		crawl: func(ctx context.Context, w *population.World, o Options) (*core.MonDataset, error) {
			exp := &core.MonitorExperiment{
				Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo, Clock: w.Clock,
				Zone: population.Zone, Weights: w.Pool.CountryCounts(),
				Seed: o.Seed, Crawl: o.Crawl,
				Watch: 24 * time.Hour,
			}
			exp.InstallRules(population.WebIP)
			return exp.Run(ctx)
		},
		stats: func(d *core.MonDataset) core.Stats { return d.Crawl },
		tables: func(a *analysis.MonAnalysis) []*analysis.Table {
			_, t9 := a.Table9(6)
			_, f5 := a.Figure5Table(6)
			return []*analysis.Table{t9, f5}
		},
		headline: func(_ *core.MonDataset, a *analysis.MonAnalysis) string {
			s := a.Summary()
			return fmt.Sprintf("== Monitoring (§7): %d nodes; monitored %d (%.2f%%) by %d IPs in %d AS groups\n",
				s.MeasuredNodes, s.Monitored, s.MonitoredPct, s.UniqueIPs, s.ASGroups)
		},
		overview: func(a *analysis.MonAnalysis) analysis.DatasetOverview {
			s := a.Summary()
			return analysis.DatasetOverview{Name: "Monitoring", Nodes: s.MeasuredNodes, ASes: s.ASes, Countries: s.Countries}
		},
	}
}

type smtpExp struct{}

func (smtpExp) spec() runSpec[core.SMTPDataset, analysis.SMTPAnalysis] {
	return runSpec[core.SMTPDataset, analysis.SMTPAnalysis]{
		name: "smtp", build: population.BuildSMTPWorld,
		analyze: analysis.AnalyzeSMTP, writeDataset: dataset.WriteSMTP,
		crawl: func(ctx context.Context, w *population.World, o Options) (*core.SMTPDataset, error) {
			exp := &core.SMTPExperiment{
				Client: w.Client, Geo: w.Geo, Weights: w.Pool.CountryCounts(),
				Seed: o.Seed, Crawl: o.Crawl,
				MailIP: population.MailIP, MailHost: population.MailHost,
			}
			return exp.Run(ctx)
		},
		stats: func(d *core.SMTPDataset) core.Stats { return d.Crawl },
		tables: func(a *analysis.SMTPAnalysis) []*analysis.Table {
			_, t := a.TableSMTP()
			return []*analysis.Table{t}
		},
		headline: func(_ *core.SMTPDataset, a *analysis.SMTPAnalysis) string {
			s := a.Summary()
			return fmt.Sprintf("== SMTP extension (§3.4 future work): %d nodes probed through an any-port tunnel\n"+
				"   port 25 blocked: %d (%.1f%%); STARTTLS stripped: %d (%.2f%%) in %d ASes\n",
				s.MeasuredNodes, s.Blocked, s.BlockedPct, s.Stripped, s.StrippedPct, s.StripperASes)
		},
		overview: func(a *analysis.SMTPAnalysis) analysis.DatasetOverview {
			s := a.Summary()
			return analysis.DatasetOverview{Name: "SMTP", Nodes: s.MeasuredNodes, ASes: s.ASes, Countries: s.Countries}
		},
	}
}

// Results is the output of a full four-experiment campaign.
type Results struct {
	DNS     *DNSRun
	HTTP    *HTTPRun
	TLS     *TLSRun
	Monitor *MonitorRun
}

// Runs returns the campaign's experiments in paper order. Consumers
// iterate over this slice instead of naming each field.
func (r *Results) Runs() []Run {
	return []Run{r.DNS, r.HTTP, r.TLS, r.Monitor}
}

// RunAll executes all four experiments. Each run gets its own metrics
// registry (unless opts.Crawl.Metrics pre-installs a shared one).
func RunAll(ctx context.Context, opts Options) (*Results, error) {
	dns, err := RunDNS(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("dns experiment: %w", err)
	}
	http, err := RunHTTP(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("http experiment: %w", err)
	}
	tls, err := RunTLS(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("tls experiment: %w", err)
	}
	mon, err := RunMonitor(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("monitoring experiment: %w", err)
	}
	return &Results{DNS: dns, HTTP: http, TLS: tls, Monitor: mon}, nil
}

// Overview builds Table 2 from the campaign's runs.
func (r *Results) Overview() *analysis.Table {
	rows := make([]analysis.DatasetOverview, 0, 4)
	for _, run := range r.Runs() {
		rows = append(rows, run.Overview())
	}
	return analysis.Table2(rows)
}

// Dump writes the campaign's datasets plus the geo snapshots into dir —
// the code-and-data release of the paper's fourth contribution.
// cmd/analyze regenerates every table from these files alone. The DNS
// world's geo snapshot is written as geo.jsonl (the fallback with the
// richest attribution structure); every other run writes
// geo-<name>.jsonl.
func (r *Results) Dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	manifests := make([]*progress.RunManifest, 0, 4)
	for _, run := range r.Runs() {
		geoName := "geo-" + run.Name() + ".jsonl"
		if run.Name() == "dns" {
			geoName = "geo.jsonl"
		}
		if err := write(geoName, run.WriteGeo); err != nil {
			return err
		}
		if err := write(run.Name()+".jsonl", run.WriteDataset); err != nil {
			return err
		}
		manifests = append(manifests, run.Manifest())
	}
	// manifest.json records how the release was produced: per-run seeds,
	// scale, workers, durations, final counts, and runtime watermarks.
	return write("manifest.json", func(w io.Writer) error {
		return progress.WriteManifests(w, manifests)
	})
}

// LongitudinalRun bundles a §9-style continuous measurement: repeated DNS
// crawls over virtual weeks while the violator population evolves.
type LongitudinalRun struct {
	Opts  Options
	World *population.World
	Waves []core.Wave
}

// RunLongitudinal executes a multi-wave DNS campaign against one world,
// applying population.StandardEvolution between waves (large ISPs
// progressively retiring their hijacking appliances). Each wave carries
// its own metrics snapshot in Wave.Metrics.
func RunLongitudinal(ctx context.Context, opts Options, waves int) (*LongitudinalRun, error) {
	opts = opts.withDefaults()
	w, err := opts.setup(population.BuildDNSWorld)
	if err != nil {
		return nil, err
	}
	long := &core.LongitudinalDNS{
		Experiment:   newDNSExperiment(w, opts),
		Clock:        w.Clock,
		Waves:        waves,
		BetweenWaves: population.StandardEvolution(w),
	}
	ws, err := long.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &LongitudinalRun{Opts: opts, World: w, Waves: ws}, nil
}

// Table renders the wave time series, including each wave's crawl cost
// (sessions spent) from the per-wave metrics.
func (r *LongitudinalRun) Table() *analysis.Table {
	rows := make([]analysis.WaveRow, 0, len(r.Waves))
	for _, w := range r.Waves {
		rows = append(rows, analysis.WaveRow{
			Wave: w.Index, Measured: w.Measured, Hijacked: w.Hijacked,
			HijackPct: 100 * w.HijackRate(),
		})
	}
	return analysis.TableLongitudinal(rows)
}
