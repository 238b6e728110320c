package core

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/proxynet"
)

// ObjectOutcome classifies what came back for one measurement object.
type ObjectOutcome int

// Outcomes per object.
const (
	// ObjUnmodified: byte-identical to what the origin served.
	ObjUnmodified ObjectOutcome = iota
	// ObjModified: 200 response with different bytes.
	ObjModified
	// ObjBlocked: replaced by an error/block page (non-200).
	ObjBlocked
	// ObjEmpty: 200 with an empty body.
	ObjEmpty
	// ObjError: the proxied fetch failed.
	ObjError
)

// String names the outcome.
func (o ObjectOutcome) String() string {
	switch o {
	case ObjUnmodified:
		return "unmodified"
	case ObjModified:
		return "modified"
	case ObjBlocked:
		return "blocked"
	case ObjEmpty:
		return "empty"
	case ObjError:
		return "error"
	}
	return fmt.Sprintf("ObjectOutcome(%d)", int(o))
}

// ObjectResult is the per-object record.
type ObjectResult struct {
	Outcome ObjectOutcome
	// BodyLen is the received length.
	BodyLen int
	// Body is retained only for modified HTML (signature extraction) and
	// block pages (filtering).
	Body []byte
	// ImageRatio is received/original size for the image object.
	ImageRatio float64
}

// HTTPObservation is one measured node.
type HTTPObservation struct {
	ZID     string
	NodeIP  netip.Addr
	ASN     geo.ASN
	Country geo.CountryCode
	Objects [4]ObjectResult
}

// AnyModified reports whether any object came back tampered.
func (o *HTTPObservation) AnyModified() bool {
	for _, r := range o.Objects {
		if r.Outcome != ObjUnmodified {
			return true
		}
	}
	return false
}

// HTTPDataset is the HTTP experiment's output.
type HTTPDataset struct {
	Observations []*HTTPObservation
	Crawl        Stats
	Failures     int
	Duplicates   int
	// SkippedQuota counts nodes left unmeasured because their AS already
	// had its three samples and showed no modification (§5.1).
	SkippedQuota int
	// Faults counts probes lost to transport-layer faults; they are
	// excluded from violation denominators (see Stats.Faulted).
	Faults int
}

// HTTPExperiment drives §5's methodology.
type HTTPExperiment struct {
	Client  *proxynet.Client
	Auth    *dnsserver.Authority
	Geo     *geo.Registry
	Zone    string
	Weights map[geo.CountryCode]int
	Budget  *Budget
	Crawl   CrawlConfig
	Seed    uint64
	// PerASQuota is the initial sample per AS (paper: 3). Setting it very
	// high disables the sampling strategy (the exhaustive ablation).
	PerASQuota int
	// Kinds restricts the fetched objects (ablations); nil means all four.
	Kinds []content.Kind
}

const httpPrefix = "h-"

// InstallRules makes h-* names resolve to the web server.
func (e *HTTPExperiment) InstallRules(webIP netip.Addr) {
	e.Auth.SetFallback(func(name string) dnsserver.Rule {
		if strings.HasPrefix(name, httpPrefix) {
			return dnsserver.Always(webIP)
		}
		return nil
	})
}

// Run executes the crawl.
func (e *HTTPExperiment) Run(ctx context.Context) (*HTTPDataset, error) {
	if e.PerASQuota <= 0 {
		e.PerASQuota = 3
	}
	p := &httpProbe{HTTPExperiment: e, kinds: e.Kinds,
		asCount: make(map[geo.ASN]int), asFlagged: make(map[geo.ASN]bool)}
	if p.kinds == nil {
		p.kinds = content.Kinds
	}
	obs, t, st := crawl[*HTTPObservation](ctx, crawlSpec{
		name: "http", seedLabel: "crawl/http",
		cfg: e.Crawl, weights: e.Weights, seed: e.Seed, budget: &e.Budget,
		discarded: "http_quota_skipped_total", violation: "http_modified_total", detail: "http_modified",
	}, p)
	return &HTTPDataset{Observations: obs, Crawl: st,
		Failures: t[outcomeFailed], Duplicates: t[outcomeDuplicate],
		SkippedQuota: t[outcomeDiscarded], Faults: t[outcomeFault]}, ctx.Err()
}

func (o *HTTPObservation) node() (string, geo.CountryCode) { return o.ZID, o.Country }

// httpProbe is one HTTP crawl's probe and its AS sampling quota (§5.1).
type httpProbe struct {
	*HTTPExperiment
	kinds []content.Kind
	// The quota is inherently global — every shard consults it before
	// fully measuring a node — so it stays behind a mutex.
	mu        sync.Mutex
	asCount   map[geo.ASN]int
	asFlagged map[geo.ASN]bool
}

// commit counts the node's object outcomes and its AS's sample; any
// modified object is the violation and flags the AS for full measurement.
func (p *httpProbe) commit(_ int, o *HTTPObservation) bool {
	outcomes := p.Crawl.Metrics.Labeled("http_object_outcomes")
	for _, res := range o.Objects {
		outcomes.Inc(res.Outcome.String())
	}
	modified := o.AnyModified()
	p.mu.Lock()
	p.asCount[o.ASN]++
	if modified {
		p.asFlagged[o.ASN] = true
	}
	p.mu.Unlock()
	return modified
}

// measure fetches the four objects through one node.
func (p *httpProbe) measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*HTTPObservation, outcome) {
	opts := proxynet.Options{Country: cc, Session: sess}
	obs := &HTTPObservation{}
	for i := range obs.Objects {
		obs.Objects[i].Outcome = ObjError
	}

	for idx, k := range p.kinds {
		host := httpPrefix + sess + "-" + strconv.Itoa(idx) + "." + p.Zone
		resp, dbg, err := p.Client.Get(ctx, opts, "http://"+host+k.Path())
		oc, stop := p.object(cr, obs, idx, k, resp, dbg, err)
		// classify clones what it keeps, so this is the body's last use.
		resp.Release()
		if oc != outcomeOK {
			return nil, oc
		}
		if stop {
			break
		}
	}
	if obs.ZID == "" {
		return nil, outcomeFailed
	}
	return obs, outcomeOK
}

// object records the idx-th fetch (object kind k) into obs. A non-OK
// outcome ends the probe without an observation; stop ends the fetches
// but keeps what obs has.
func (p *httpProbe) object(cr *crawler, obs *HTTPObservation, idx int, k content.Kind, resp *httpwire.Response, dbg *proxynet.Debug, err error) (oc outcome, stop bool) {
	if err != nil || dbg == nil || dbg.Err != "" {
		oc = classifyFailure(err, dbg)
		if oc == outcomeFault {
			// A transport fault mid-measurement would leave ObjError
			// objects that AnyModified reads as tampering; exclude the
			// probe into the error budget rather than misclassify it.
			return outcomeFault, true
		}
		if idx == 0 {
			return oc, true
		}
		return outcomeOK, false
	}
	if idx == 0 {
		if oc = cr.identify(dbg.ZID); oc != outcomeOK {
			return oc, true
		}
		obs.ZID = dbg.ZID
		obs.NodeIP = dbg.NodeIP
		obs.ASN, obs.Country = locate(p.Geo, obs.NodeIP)
		// The bandwidth-minimizing strategy: skip fully measuring
		// ASes that already gave 3 clean samples (§5.1).
		p.mu.Lock()
		skip := p.asCount[obs.ASN] >= p.PerASQuota && !p.asFlagged[obs.ASN]
		p.mu.Unlock()
		if skip {
			return outcomeDiscarded, true
		}
	} else if dbg.ZID != obs.ZID {
		// Node switched mid-measurement; keep what we have.
		return outcomeOK, false
	}
	if !p.Budget.Charge(obs.ZID, len(resp.Body)) {
		return outcomeOK, true
	}
	obs.Objects[int(k)] = classify(k, resp.StatusCode, resp.Body)
	return outcomeOK, false
}

// classify compares a received object with the canonical one. The body's
// response is released after the call, so any body kept is a clone.
func classify(k content.Kind, status int, body []byte) ObjectResult {
	orig := content.Object(k)
	r := ObjectResult{BodyLen: len(body)}
	switch {
	case status != 200:
		r.Outcome = ObjBlocked
		r.Body = bytes.Clone(body)
	case len(body) == 0:
		r.Outcome = ObjEmpty
	case bytes.Equal(body, orig):
		r.Outcome = ObjUnmodified
	default:
		r.Outcome = ObjModified
		if k == content.KindHTML {
			r.Body = bytes.Clone(body)
		}
		if k == content.KindImage {
			r.ImageRatio = content.CompressionRatio(orig, body)
		}
	}
	return r
}
