// Package core implements the paper's contribution: the measurement
// techniques that turn a P2P HTTP/S proxy service into a large-scale
// detector for end-to-end connectivity violations.
//
// Five experiment drivers mirror §4–§7 and the §3.4 extension:
//
//   - DNSExperiment: the d1/d2 NXDOMAIN-hijack probe, including the
//     super-proxy resolver gate and the shared-anycast filter.
//   - HTTPExperiment: four-object content-modification detection with the
//     3-nodes-per-AS sampling strategy and revisit-on-detection.
//   - TLSExperiment: two-phase certificate collection over CONNECT tunnels
//     against popular, international, and deliberately-invalid sites.
//   - MonitorExperiment: unique per-node domains plus a 24-hour watch for
//     unexpected third-party requests.
//   - SMTPExperiment: port-25 blocking and STARTTLS stripping through an
//     any-port tunnel service.
//
// All five run one probe pipeline (crawl, in pipeline.go): the §3.2
// crawler's session sampling, zID dedup and stop rule, the §3.4 per-node
// budget, and a single tally of every session's outcome. An experiment
// contributes only its per-session probe and the run-wide state a measured
// node updates.
//
// The drivers observe the world only through what the paper could see: the
// proxy client's responses and debug headers, the authoritative DNS query
// log, and the measurement web server's request log. Ground truth from the
// population package is never consulted.
package core

import (
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/trace"
)

// Budget enforces the paper's per-node courtesy cap (§3.4): never more than
// MaxBytes downloaded through any single exit node across all experiments.
type Budget struct {
	// MaxBytes per zID; zero means the paper's 1 MB.
	MaxBytes int64
	// Metrics, when non-nil, receives the charged-byte counter and a
	// budget-exhausted event the first time each node crosses the cap.
	Metrics *metrics.Registry

	mu   sync.Mutex
	used map[string]int64
}

// DefaultBudgetBytes is the paper's 1 MB per exit node.
const DefaultBudgetBytes = 1 << 20

// NewBudget creates a budget tracker.
func NewBudget(maxBytes int64) *Budget {
	if maxBytes <= 0 {
		maxBytes = DefaultBudgetBytes
	}
	return &Budget{MaxBytes: maxBytes, used: make(map[string]int64)}
}

// Charge records n bytes against zid, reporting whether the node remains
// within budget. Callers must stop measuring a node once Charge returns
// false.
func (b *Budget) Charge(zid string, n int) bool {
	b.mu.Lock()
	before := b.used[zid]
	b.used[zid] += int64(n)
	after := b.used[zid]
	b.mu.Unlock()
	b.Metrics.Counter("budget_charged_bytes").Add(int64(n))
	if before <= b.MaxBytes && after > b.MaxBytes {
		b.Metrics.Counter("budget_exhausted_total").Inc()
		b.Metrics.Record(metrics.Event{Kind: metrics.EventBudgetExhausted,
			ZID: zid, Value: float64(after)})
	}
	return after <= b.MaxBytes
}

// Used reports the bytes charged to zid.
func (b *Budget) Used(zid string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used[zid]
}

// CrawlConfig tunes the §3.2 exit-node discovery loop shared by all
// experiments.
type CrawlConfig struct {
	// Workers is the number of concurrent measurement sessions.
	Workers int
	// Window and StopNewRate implement the stop rule: once fewer than
	// StopNewRate of the last Window sessions discovered a new zID, the
	// crawl ends ("the rate of new exit nodes we discover drops
	// significantly").
	Window      int
	StopNewRate float64
	// MaxSessions bounds the crawl regardless (0 = derived from the
	// country weights).
	MaxSessions int
	// Metrics, when non-nil, receives the crawl's live telemetry: session
	// and novelty counters, per-country session counts, the stop-rule
	// window trajectory, and the typed event trace. A nil registry
	// disables instrumentation at the cost of a nil check.
	Metrics *metrics.Registry
	// Tracer, when non-nil, wraps every measurement session in a client
	// root span whose context the proxy chain's spans parent under,
	// yielding a complete per-request trace tree. Nil disables tracing.
	Tracer *trace.Tracer
	// Progress, when non-nil, is the flight recorder: the crawler reports
	// each issued probe and the pipeline reports per-shard outcomes into it,
	// so a Sampler can expose live done/total, rates, and ETA while the
	// crawl runs. Nil disables progress reporting.
	Progress *progress.Tracker
	// Now, when non-nil, timestamps each probe so its duration feeds the
	// probe_duration_seconds histogram. Simulated runs inject the world's
	// virtual clock; benchmarks may inject a wall clock to measure real
	// per-probe latency. Nil disables probe timing.
	Now func() time.Time
}

// withDefaults fills unset fields.
func (c CrawlConfig) withDefaults(totalNodes int) CrawlConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Window <= 0 {
		c.Window = 400
	}
	if c.StopNewRate <= 0 {
		c.StopNewRate = 0.05
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 12*totalNodes + 1000
	}
	return c
}

// crawler implements weighted country selection, zID dedup, and the stop
// rule. Safe for concurrent use by the worker pool.
type crawler struct {
	cfg       CrawlConfig
	countries []geo.CountryCode
	cum       []int // cumulative weights
	totalW    int

	mu            sync.Mutex
	rng           *rand.Rand
	seen          map[string]bool
	recent        []bool
	recentAt      int
	filled        int
	newInWin      int
	sessions      int
	stopped       bool
	stopEventDone bool

	// Cached instrument handles; all nil-safe no-ops when cfg.Metrics is
	// nil, so the hot path never branches on telemetry being enabled.
	mSessions   *metrics.Counter
	mNodes      *metrics.Counter
	mDuplicates *metrics.Counter
	mByCountry  *metrics.LabeledCounter
	mWindowNew  *metrics.Gauge
	mWindowRate *metrics.Histogram
	mProbeSecs  *metrics.Histogram
}

// newCrawler builds a crawler over the service-reported country weights.
func newCrawler(cfg CrawlConfig, weights map[geo.CountryCode]int, rng *rand.Rand) *crawler {
	total := 0
	var countries []geo.CountryCode
	for cc := range weights {
		countries = append(countries, cc)
	}
	// Deterministic order for reproducible sampling.
	slices.Sort(countries)
	cum := make([]int, len(countries))
	for i, cc := range countries {
		total += weights[cc]
		cum[i] = total
	}
	cfg = cfg.withDefaults(total)
	m := cfg.Metrics
	return &crawler{
		cfg: cfg, countries: countries, cum: cum, totalW: total,
		rng:    rng,
		seen:   make(map[string]bool),
		recent: make([]bool, cfg.Window),

		mSessions:   m.Counter("crawl_sessions_total"),
		mNodes:      m.Counter("crawl_nodes_total"),
		mDuplicates: m.Counter("crawl_duplicates_total"),
		mByCountry:  m.Labeled("crawl_sessions_by_country"),
		mWindowNew:  m.Gauge("crawl_window_new"),
		mWindowRate: m.Histogram("crawl_window_new_rate", windowRateBounds),
		mProbeSecs:  m.Histogram("probe_duration_seconds", probeSecondsBounds),
	}
}

// probeSecondsBounds bucket per-probe durations. The sub-millisecond
// buckets resolve in-process simulated probes under a wall clock; the upper
// buckets cover virtual-clock worlds where middlebox delays advance
// simulated time.
var probeSecondsBounds = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
	0.01, 0.05, 0.1, 0.5, 1, 5, 30,
}

// windowRateBounds bucket the stop-rule window's new-node rate; the 0.05
// boundary is the default StopNewRate, so the lowest buckets show how the
// crawl approached its stopping condition.
var windowRateBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}

// next picks a country (weight-proportional) and a fresh session ID, or
// reports that the crawl should stop. A cancelled ctx stops the crawl as
// if the session cap had been reached.
func (c *crawler) next(ctx context.Context) (geo.CountryCode, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx.Err() != nil {
		c.recordStop("context_cancelled")
		return "", "", false
	}
	if c.stopped || c.totalW == 0 {
		return "", "", false
	}
	if c.sessions >= c.cfg.MaxSessions {
		c.recordStop("session_cap")
		return "", "", false
	}
	c.sessions++
	// "s%08d" by hand: one allocation instead of Sprintf's boxing, on a
	// path that runs once per session.
	var sb [9]byte
	sb[0] = 's'
	for i, n := 8, c.sessions; i >= 1; i, n = i-1, n/10 {
		sb[i] = byte('0' + n%10)
	}
	id := string(sb[:])
	w := int(c.rng.IntN(c.totalW))
	idx := 0
	for idx < len(c.cum) && c.cum[idx] <= w {
		idx++
	}
	cc := c.countries[idx]
	c.mSessions.Inc()
	c.mByCountry.Inc(string(cc))
	c.cfg.Metrics.Record(metrics.Event{Kind: metrics.EventSessionStarted,
		Session: id, Country: string(cc)})
	return cc, id, true
}

// recordStop emits the crawl-stopped event once. Callers hold c.mu.
func (c *crawler) recordStop(reason string) {
	if c.stopEventDone {
		return
	}
	c.stopEventDone = true
	c.cfg.Metrics.Record(metrics.Event{Kind: metrics.EventCrawlStopped,
		Detail: reason, Value: float64(c.sessions)})
}

// observe records a measured zID, returning false when this node was
// already measured. It also advances the stop rule.
func (c *crawler) observe(zid string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	isNew := !c.seen[zid]
	if isNew {
		c.seen[zid] = true
		c.mNodes.Inc()
		c.cfg.Metrics.Record(metrics.Event{Kind: metrics.EventNodeDiscovered, ZID: zid})
	} else {
		c.mDuplicates.Inc()
		c.cfg.Metrics.Record(metrics.Event{Kind: metrics.EventDuplicateNode, ZID: zid})
	}
	// Ring buffer of recent novelty outcomes.
	if c.filled == len(c.recent) {
		if c.recent[c.recentAt] {
			c.newInWin--
		}
	} else {
		c.filled++
	}
	c.recent[c.recentAt] = isNew
	if isNew {
		c.newInWin++
	}
	c.recentAt = (c.recentAt + 1) % len(c.recent)
	c.mWindowNew.Set(int64(c.newInWin))
	if c.filled == len(c.recent) && c.recentAt == 0 {
		// One trajectory sample per full window turn: how fast is the
		// crawl still finding new nodes?
		rate := float64(c.newInWin) / float64(len(c.recent))
		c.mWindowRate.Observe(rate)
		c.cfg.Metrics.Record(metrics.Event{Kind: metrics.EventStopWindow, Value: rate})
	}
	if c.filled == len(c.recent) &&
		float64(c.newInWin) < c.cfg.StopNewRate*float64(len(c.recent)) {
		c.stopped = true
		c.recordStop("stop_rule")
	}
	return isNew
}

// Stats summarises a crawl.
type Stats struct {
	// Sessions is how many proxy sessions the crawl spent.
	Sessions int
	// UniqueNodes is how many distinct zIDs were measured.
	UniqueNodes int
	// StoppedByRule reports whether the new-node-rate rule (rather than the
	// session cap) ended the crawl.
	StoppedByRule bool
	// Faulted counts probes lost to transport-layer faults (injected chaos
	// or their real-world analogues). They are excluded from violation
	// denominators — a reset mid-probe says nothing about the node's DNS or
	// content path — and surfaced here as the run's error budget. Filled by
	// the pipeline's tally after the shard merge, not by the crawler.
	Faulted int
}

func (c *crawler) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Sessions: c.sessions, UniqueNodes: len(c.seen), StoppedByRule: c.stopped}
}

// traceProbe opens the client-side root span for one measurement session.
// The returned context parents everything the proxy chain does for the
// probe; done stamps the measured zID and outcome, then closes the span.
// With a nil CrawlConfig.Tracer both are cheap no-ops.
func (c *crawler) traceProbe(ctx context.Context, name string, cc geo.CountryCode, sess string) (context.Context, func(zid string, oc outcome)) {
	span := c.cfg.Tracer.StartRoot(name, trace.KindClient,
		trace.Str("session", sess), trace.Str("country", string(cc)))
	return trace.NewContext(ctx, span.Context()), func(zid string, oc outcome) {
		if zid != "" {
			span.SetAttrs(trace.Str("zid", zid))
		}
		span.SetAttrs(trace.Str("outcome", oc.String()))
		switch oc {
		case outcomeFailed:
			span.SetError("probe_failed")
		case outcomeFault:
			span.SetError("probe_faulted")
		}
		span.End()
	}
}

// runWorkers drives measure() from cfg.Workers goroutines until the crawl
// stops or ctx is cancelled. measure is called with the worker's shard
// index, a country, and a session ID, and must do its own recording; a
// given shard's calls are sequential, so per-shard state needs no
// synchronization. Cancellation is checked before every session hand-out,
// so each worker finishes at most the session it is in. With a non-nil
// cfg.Now each probe's duration is observed into probe_duration_seconds.
func (c *crawler) runWorkers(ctx context.Context, measure func(shard int, cc geo.CountryCode, session string)) {
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				cc, sess, ok := c.next(ctx)
				if !ok {
					return
				}
				c.cfg.Progress.Probe(shard)
				if c.cfg.Now == nil {
					measure(shard, cc, sess)
					continue
				}
				start := c.cfg.Now()
				measure(shard, cc, sess)
				c.mProbeSecs.Observe(c.cfg.Now().Sub(start).Seconds())
			}
		}(w)
	}
	wg.Wait()
}
