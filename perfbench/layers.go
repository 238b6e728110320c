package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	tftmetrics "github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// layer is one boundary the traced crawl times from outside the program.
type layer int

const (
	layerProbe  layer = iota // one crawl session, between CrawlConfig.Now calls
	layerSuper               // super-proxy connection handler at ProxyIP
	layerPick                // NodeSource.Pick
	layerLookup              // NodeSource.Get (session-pin lookups)
	layerExit                // exit-node Peer calls: ResolveA, FetchHTTP, Tunnel
	layerAuth                // authoritative DNS handler at AuthIP
	layerWeb                 // measurement web origin handler at WebIP
	numLayers
)

// frame is one open call on a goroutine's stack.
type frame struct {
	l     layer
	start time.Time
	child time.Duration // time covered by calls nested in this one
}

// recorder times calls into the layers. The fabric runs an accepted
// connection's handler inline on whichever goroutine next blocks on a
// stream, so calls nest on goroutine stacks, and a blocked handler may run
// another probe's handler nested in its own. Each goroutine therefore has
// its own stack of open frames, and a frame's self time is its duration
// minus the duration of the frames nested directly in it.
type recorder struct {
	mu          sync.Mutex
	stacks      map[uint64][]frame
	calls       [numLayers]int64
	total       [numLayers]time.Duration
	self        [numLayers]time.Duration
	first, last time.Time // first probe start, last probe end
	unbalanced  int

	resolves, fetches, tunnels, exitErrs atomic.Int64
	dnsResp, htmlResp                    []byte // first captured of each
}

func newRecorder() *recorder { return &recorder{stacks: make(map[uint64][]frame)} }

func (r *recorder) begin(l layer) uint64 {
	g := goid()
	t := wallNow()
	r.mu.Lock()
	r.stacks[g] = append(r.stacks[g], frame{l: l, start: t})
	r.mu.Unlock()
	return g
}

func (r *recorder) end(g uint64, l layer) {
	t := wallNow()
	r.mu.Lock()
	r.pop(g, l, t)
	r.mu.Unlock()
}

// pop closes the top frame of goroutine g, which must be a call into l.
// Callers hold r.mu.
func (r *recorder) pop(g uint64, l layer, t time.Time) {
	st := r.stacks[g]
	if len(st) == 0 || st[len(st)-1].l != l {
		r.unbalanced++
		return
	}
	f := st[len(st)-1]
	st = st[:len(st)-1]
	d := t.Sub(f.start)
	r.calls[l]++
	r.total[l] += d
	r.self[l] += d - f.child
	if len(st) > 0 {
		st[len(st)-1].child += d
	}
	r.stacks[g] = st
}

// probeNow is the traced crawl's CrawlConfig.Now. A crawl worker calls it
// just before and just after each probe, with nothing else open on its
// stack, so the first call opens a probe frame and the second closes it.
func (r *recorder) probeNow() time.Time {
	g := goid()
	t := wallNow()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stacks[g]) == 0 {
		r.stacks[g] = append(r.stacks[g], frame{l: layerProbe, start: t})
		if r.first.IsZero() {
			r.first = t
		}
		return t
	}
	r.pop(g, layerProbe, t)
	r.last = t
	return t
}

// openFrames counts frames never closed.
func (r *recorder) openFrames() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, st := range r.stacks {
		n += len(st)
	}
	return n
}

func (r *recorder) conn(l layer, h simnet.ConnHandler) simnet.ConnHandler {
	return func(c net.Conn) {
		g := r.begin(l)
		h(c)
		r.end(g, l)
	}
}

func (r *recorder) dns(h simnet.DNSHandler) simnet.DNSHandler {
	return func(src netip.Addr, query []byte) []byte {
		g := r.begin(layerAuth)
		resp := h(src, query)
		r.end(g, layerAuth)
		if len(resp) > 0 {
			r.capture(&r.dnsResp, func() []byte { return bytes.Clone(resp) })
		}
		return resp
	}
}

// capture stores the first value an input slot receives.
func (r *recorder) capture(slot *[]byte, val func() []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if *slot == nil {
		*slot = val()
	}
}

// timedSource is the super proxy's NodeSource with picks and lookups timed
// and the peers it hands out wrapped in timedPeer.
type timedSource struct {
	proxynet.NodeSource
	rec *recorder
}

func (s timedSource) Pick(country geo.CountryCode, exclude map[string]bool) (proxynet.Peer, bool) {
	g := s.rec.begin(layerPick)
	p, up := s.NodeSource.Pick(country, exclude)
	s.rec.end(g, layerPick)
	if p == nil {
		return nil, up
	}
	return timedPeer{p, s.rec}, up
}

func (s timedSource) Get(zid string) (proxynet.Peer, bool) {
	g := s.rec.begin(layerLookup)
	p, ok := s.NodeSource.Get(zid)
	s.rec.end(g, layerLookup)
	if p == nil {
		return nil, ok
	}
	return timedPeer{p, s.rec}, ok
}

// timedPeer times the exit-node calls. It passes the client connection to
// Tunnel unwrapped, so the relay takes the same splice path as untraced.
type timedPeer struct {
	proxynet.Peer
	rec *recorder
}

func (p timedPeer) ResolveA(ctx context.Context, name string) (netip.Addr, dnswire.RCode, error) {
	p.rec.resolves.Add(1)
	g := p.rec.begin(layerExit)
	ip, rc, err := p.Peer.ResolveA(ctx, name)
	p.rec.end(g, layerExit)
	if err != nil {
		p.rec.exitErrs.Add(1)
	}
	return ip, rc, err
}

func (p timedPeer) FetchHTTP(ctx context.Context, host string, port uint16, path string, ip netip.Addr) (*httpwire.Response, error) {
	p.rec.fetches.Add(1)
	g := p.rec.begin(layerExit)
	resp, err := p.Peer.FetchHTTP(ctx, host, port, path, ip)
	p.rec.end(g, layerExit)
	if err != nil {
		p.rec.exitErrs.Add(1)
	} else if path == content.KindHTML.Path() && len(resp.Body) == content.HTMLSize {
		p.rec.capture(&p.rec.htmlResp, func() []byte {
			var b bytes.Buffer
			resp.Write(&b) // a bytes.Buffer write cannot fail
			return b.Bytes()
		})
	}
	return resp, err
}

func (p timedPeer) Tunnel(ctx context.Context, client net.Conn, ip netip.Addr, port uint16, done func(error)) bool {
	p.rec.tunnels.Add(1)
	g := p.rec.begin(layerExit)
	detached := p.Peer.Tunnel(ctx, client, ip, port, func(err error) {
		if err != nil {
			p.rec.exitErrs.Add(1)
		}
		if done != nil {
			done(err)
		}
	})
	p.rec.end(g, layerExit)
	return detached
}

// tracedStats are one traced crawl's measurements.
type tracedStats struct {
	rec                    *recorder
	tally                  tally
	nodes                  int
	analyze, tables, write time.Duration
}

func (s tracedStats) probesPerSec() float64 {
	return float64(s.tally.sessions) / s.rec.last.Sub(s.rec.first).Seconds()
}

// crawlTraced runs one crawl with every layer boundary timed: it builds the
// world, wires the instrumentation tft.Run* would, re-registers the
// super-proxy, origin and authority handlers and the super proxy's node
// source with timing wrappers, then crawls, analyzes, renders the tables and
// writes the dataset. Besides the output checks of an untraced crawl it
// checks that the wrappers saw exactly the requests the program counted.
// With capture set it also returns the crawl's replay inputs.
func crawlTraced(ctx context.Context, wl workload, seed uint64, capture bool) (tracedStats, *inputs, error) {
	runtime.GC()
	w, err := wl.build(seed, wl.scale)
	if err != nil {
		return tracedStats{}, nil, err
	}
	reg := newRegistry()
	tracer := trace.New(w.Clock.Now, 0)
	w.Super.Metrics = reg
	w.Super.Tracer = tracer
	clock := w.Clock
	w.Pool.SetPrepare(func(n *proxynet.ExitNode) {
		if n.Tracer == nil {
			n.Tracer = tracer
		}
		if n.Clock == nil {
			n.Clock = clock
		}
	})
	if lp, ok := w.Pool.(*proxynet.LazyPool); ok {
		lp.SetMetrics(reg)
	}

	rec := newRecorder()
	w.Super.Pool = timedSource{w.Pool, rec}
	w.Fabric.HandleTCP(population.ProxyIP, proxynet.ProxyPort, rec.conn(layerSuper, w.Super.ConnHandler()))
	w.Fabric.HandleTCP(population.WebIP, 80, rec.conn(layerWeb, w.Web.ConnHandler()))
	w.Fabric.HandleDNS(population.AuthIP, rec.dns(w.Auth.Handler()))

	opts := wl.options(seed, core.CrawlConfig{
		Metrics: reg, Tracer: tracer, Progress: progress.NewTracker(), Now: rec.probeNow,
	})
	r, err := wl.crawl(ctx, w, opts)
	if err != nil {
		return tracedStats{}, nil, err
	}
	st := tracedStats{rec: rec, tally: tallyOf(r), nodes: r.Stats().UniqueNodes}
	t0 := wallNow()
	wl.analyze(r)
	t1 := wallNow()
	for _, t := range r.Tables() {
		_ = t.String()
	}
	t2 := wallNow()
	var out countWriter
	if err := r.WriteDataset(&out); err != nil {
		return tracedStats{}, nil, fmt.Errorf("writing dataset: %w", err)
	}
	st.analyze, st.tables, st.write = t1.Sub(t0), t2.Sub(t1), wallSince(t2)
	if out.n == 0 {
		return st, nil, fmt.Errorf("empty dataset")
	}
	if err := checkRun(wl, r); err != nil {
		return st, nil, err
	}
	if err := checkTrace(rec, st.tally, reg.Snapshot()); err != nil {
		return st, nil, err
	}
	if !capture {
		return st, nil, nil
	}
	in, err := captureInputs(rec, w, tracer.Spans())
	if err != nil {
		return st, nil, fmt.Errorf("capturing replay inputs: %w", err)
	}
	return st, in, nil
}

// checkTrace checks the timed calls against the crawl: every call closed,
// one probe per session, and exactly one super-proxy handler call per
// request the super proxy's own counters saw.
func checkTrace(rec *recorder, t tally, counters *tftmetrics.Snapshot) error {
	gets, connects := counters.Counter("proxy_get_total"), counters.Counter("proxy_connect_total")
	switch {
	case rec.unbalanced > 0 || rec.openFrames() > 0:
		return fmt.Errorf("%d unbalanced and %d unclosed layer calls", rec.unbalanced, rec.openFrames())
	case rec.calls[layerProbe] != int64(t.sessions):
		return fmt.Errorf("timed %d probes, want %d", rec.calls[layerProbe], t.sessions)
	case rec.calls[layerSuper] != gets+connects:
		return fmt.Errorf("super proxy handled %d connections, its counters say %d GET + %d CONNECT",
			rec.calls[layerSuper], gets, connects)
	}
	return nil
}

// countWriter counts the bytes written to it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
