package core

import (
	"context"
	"net/netip"
	"slices"
	"strings"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

// outcome is how one measurement session ended. Every session ends in
// exactly one.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeDuplicate
	outcomeDiscarded
	// outcomeFault: the probe died to a transport-layer fault rather than
	// anything the node's path did — counted into the error budget, never
	// the failure or violation tallies.
	outcomeFault
	numOutcomes
)

// String names the outcome for span attributes and event filters.
func (o outcome) String() string {
	switch o {
	case outcomeOK:
		return "ok"
	case outcomeFailed:
		return "failed"
	case outcomeDuplicate:
		return "duplicate"
	case outcomeDiscarded:
		return "discarded"
	case outcomeFault:
		return "faulted"
	}
	return "unknown"
}

// tally counts a crawl's sessions by outcome. It is the one count the
// datasets' Failures, Duplicates, Discarded and Faults fields and
// Stats.Faulted are read from.
type tally [numOutcomes]int

// observation is one measured node's record, a pointer that is nil when a
// probe measured no node.
type observation interface {
	comparable
	node() (zid string, cc geo.CountryCode)
}

// prober is one experiment's probe, run once per session by crawl.
type prober[O observation] interface {
	// measure probes one session through the proxy service and classifies
	// it. Its first response names the exit node, which it must pass
	// through cr.identify before measuring. O is the measured node on
	// outcomeOK.
	measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (O, outcome)
	// commit folds a measured node into the run's experiment state (the
	// HTTP AS quota, the DNS Sink, extra counters) and reports whether the
	// node shows a violation. Calls within one shard are sequential;
	// distinct shards call concurrently.
	commit(shard int, o O) (violation bool)
}

// crawlSpec is what one experiment's Run hands the shared crawl.
type crawlSpec struct {
	// name is the experiment's progress name; the probe span is
	// "probe."+name.
	name string
	// seedLabel derives the crawl RNG from seed.
	seedLabel string
	cfg       CrawlConfig
	weights   map[geo.CountryCode]int
	seed      uint64
	// budget, when non-nil, is the experiment's Budget field: crawl
	// installs the paper's 1 MB default and the crawl's metrics registry.
	budget **Budget
	// discarded names the counter outcomeDiscarded feeds.
	discarded string
	// violation names the counter a violating node feeds, and detail the
	// Detail of its violation event.
	violation, detail string
	// drop discards observations after commit instead of returning them
	// (DNSExperiment.DiscardObservations).
	drop bool
}

// shard is one worker's share of a crawl. Each shard is written by exactly
// one worker goroutine, so the hot path appends without locks.
type shard[O observation] struct {
	obs   []O
	tally tally
}

// crawl is the §3.2 crawl every experiment runs: weighted session
// sampling, zID dedup and the stop rule (crawler), the per-node budget, one
// traced probe per session, and per-shard sinks merged into observations
// whose zID order is independent of worker count and scheduling. It
// returns them with the crawl's outcome tally and the crawler's stats,
// Faulted filled from the tally.
func crawl[O observation](ctx context.Context, spec crawlSpec, p prober[O]) (obs []O, t tally, st Stats) {
	if b := spec.budget; b != nil {
		if *b == nil {
			*b = NewBudget(0)
		}
		if (*b).Metrics == nil {
			(*b).Metrics = spec.cfg.Metrics
		}
	}
	cr := newCrawler(spec.cfg, spec.weights, simnet.SubRand(spec.seed, spec.seedLabel))
	cr.cfg.Progress.Begin(spec.name, int64(cr.totalW), cr.cfg.Workers)
	shards := make([]shard[O], cr.cfg.Workers)
	span := "probe." + spec.name
	var none O

	cr.runWorkers(ctx, func(i int, cc geo.CountryCode, sess string) {
		pctx, done := cr.traceProbe(ctx, span, cc, sess)
		obs, oc := p.measure(pctx, cr, cc, sess)
		var zid string
		var country geo.CountryCode
		if obs != none {
			zid, country = obs.node()
		}
		done(zid, oc)
		sh := &shards[i]
		cr.recordOutcome(i, &sh.tally, oc, spec.discarded)
		if oc != outcomeOK {
			return
		}
		if p.commit(i, obs) {
			cr.cfg.violation(i, spec.violation, metrics.Event{Session: sess,
				ZID: zid, Country: string(country), Detail: spec.detail})
		}
		if !spec.drop {
			sh.obs = append(sh.obs, obs)
		}
	})

	// Because the crawler dedups zIDs globally, sorting by zID is a total
	// order over the merged observations.
	n := 0
	for i := range shards {
		n += len(shards[i].obs)
	}
	obs = make([]O, 0, n)
	for i := range shards {
		obs = append(obs, shards[i].obs...)
		for oc, c := range shards[i].tally {
			t[oc] += c
		}
	}
	slices.SortFunc(obs, func(a, b O) int {
		za, _ := a.node()
		zb, _ := b.node()
		return strings.Compare(za, zb)
	})
	st = cr.stats()
	st.Faulted = t[outcomeFault]
	return obs, t, st
}

// recordOutcome is the crawl's single tally of a session: the shard's
// outcome count, the progress cell, and the outcome's counter
// (crawl_failures_total, the experiment's discarded counter,
// fault_probes_total).
func (c *crawler) recordOutcome(shard int, t *tally, oc outcome, discarded string) {
	t[oc]++
	prog, m := c.cfg.Progress, c.cfg.Metrics
	switch oc {
	case outcomeOK:
		prog.Done(shard)
	case outcomeFailed:
		prog.Fail(shard)
		m.Counter("crawl_failures_total").Inc()
	case outcomeDuplicate:
		prog.Duplicate(shard)
	case outcomeDiscarded:
		prog.Discard(shard)
		m.Counter(discarded).Inc()
	case outcomeFault:
		prog.Fault(shard)
		m.Counter("fault_probes_total").Inc()
	}
}

// violation records a node that showed a violation: the shard's progress
// cell, the experiment's violation counter, and a violation event.
func (c *CrawlConfig) violation(shard int, counter string, ev metrics.Event) {
	c.Progress.Violation(shard)
	c.Metrics.Counter(counter).Inc()
	ev.Kind = metrics.EventViolation
	c.Metrics.Record(ev)
}

// identify is the pipeline's node-identification step, applied to the zID
// a probe's first response names. A response without one (a CONNECT
// answered 200 without the timeline debug header) identifies no node and
// fails the probe; a node already measured makes it a duplicate. Otherwise
// the node counts toward the stop rule and the probe goes on.
func (c *crawler) identify(zid string) outcome {
	if zid == "" {
		return outcomeFailed
	}
	if !c.observe(zid) {
		return outcomeDuplicate
	}
	return outcomeOK
}

// locate maps a node address to its AS and country via the public IP→AS
// mapping; both are zero when the address is unmapped.
func locate(g *geo.Registry, ip netip.Addr) (geo.ASN, geo.CountryCode) {
	asn, ok := g.LookupAS(ip)
	if !ok {
		return 0, ""
	}
	cc, _ := g.Country(asn)
	return asn, cc
}

// classifyFailure splits a failed probe between honest failure and
// transport fault: the client's own error is checked first, then the
// service-reported debug error (the super proxy stamps ErrPeerTransport
// when the exit node's fetch died to a reset/stall/truncation). Faulted
// probes are tallied into the run's error budget instead of the failure
// count, so chaos does not masquerade as middlebox behaviour — and so
// genuine failures are not hidden by it either.
func classifyFailure(err error, dbg *proxynet.Debug) outcome {
	if proxynet.IsTransportFault(err) {
		return outcomeFault
	}
	if dbg != nil && dbg.Err == proxynet.ErrPeerTransport {
		return outcomeFault
	}
	return outcomeFailed
}
