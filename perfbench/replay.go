package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// inputs are the codec and layer inputs one traced crawl saw, replayed
// through the layers' exported functions. Where a workload never exercises
// a codec (no authority traffic on tls-tunnel, no 9 KB object outside
// http-objects, no TLS sites outside tls-tunnel), the input is built from
// the same world instead.
type inputs struct {
	dnsResp  []byte // an authority response datagram
	request  []byte // a client's request to the super proxy
	username string // its proxy username
	response []byte // the exit node's response carrying the 9 KB HTML object
	chains   []siteChain
	trust    *cert.Store
	at       time.Time
}

type siteChain struct {
	host  string
	chain []*cert.Certificate
}

// captureInputs collects replay inputs from a traced crawl of world w.
func captureInputs(rec *recorder, w *population.World, spans []trace.SpanData) (*inputs, error) {
	in := &inputs{dnsResp: rec.dnsResp, response: rec.htmlResp, trust: w.Trust, at: w.Clock.Now()}
	if in.dnsResp == nil {
		q, err := dnswire.NewQuery(1, "d1-replay."+population.Zone, dnswire.TypeA).Marshal()
		if err != nil {
			return nil, err
		}
		in.dnsResp = w.Auth.Handler()(population.ClientIP, q)
		if in.dnsResp == nil {
			return nil, errors.New("authority dropped the replay query")
		}
	}
	if in.response == nil {
		resp := httpwire.NewResponse(200, content.Object(content.KindHTML))
		resp.Header.Set("Content-Type", content.KindHTML.ContentType())
		var b bytes.Buffer
		resp.Write(&b) // a bytes.Buffer write cannot fail
		in.response = b.Bytes()
	}
	if err := in.rebuildRequest(w.Client, spans, rec.resolves.Load() > 0); err != nil {
		return nil, err
	}
	if w.Sites != nil {
		t := core.TargetsFromRegistry(w.Sites)
		for _, s := range append(t.Universities, t.Invalid...) {
			in.chains = append(in.chains, siteChain{s.Host, s.KnownChain})
		}
		for _, sites := range t.Popular {
			for _, s := range sites {
				in.chains = append(in.chains, siteChain{s.Host, s.KnownChain})
			}
		}
	} else {
		host := "replay." + population.Zone
		ca := w.SiteCAs[0]
		leaf := ca.Issue(cert.Template{
			Subject: cert.Name{CommonName: host}, DNSNames: []string{host},
			NotBefore: population.Epoch.Add(-24 * time.Hour),
			NotAfter:  population.Epoch.Add(365 * 24 * time.Hour),
			KeySeed:   host,
		})
		in.chains = []siteChain{{host, []*cert.Certificate{leaf, ca.Cert}}}
	}
	return in, nil
}

// rebuildRequest re-creates the first retained probe's first request to
// the super proxy the way client c writes it, from the probe's client span
// (country, session) and the super proxy's request span (method, target).
// remoteDNS says whether the crawl's probes asked for -dns-remote.
func (in *inputs) rebuildRequest(c *proxynet.Client, spans []trace.SpanData, remoteDNS bool) error {
	roots := map[trace.TraceID]trace.SpanData{}
	for _, s := range spans {
		if s.Kind == trace.KindClient && s.Parent == 0 {
			roots[s.TraceID] = s
		}
	}
	for _, s := range spans {
		root, ok := roots[s.TraceID]
		if s.Kind != trace.KindProxy || !ok {
			continue
		}
		method := "GET"
		if s.Name == "proxy.connect" {
			method = "CONNECT"
		}
		target := s.Str("target")
		p := proxynet.Params{User: c.User, Country: geo.CountryCode(root.Str("country")),
			Session: root.Str("session"), RemoteDNS: remoteDNS}
		in.username = p.Username()
		req := httpwire.NewRequest(method, target)
		cred := base64.StdEncoding.EncodeToString([]byte(in.username + ":" + c.Password))
		req.Header.Set("Proxy-Authorization", "Basic "+cred)
		req.Header.Set(trace.HeaderName, trace.FormatHeader(root.Context()))
		if method == "GET" {
			host, _, _, err := httpwire.ParseAbsoluteURL(target)
			if err != nil {
				return err
			}
			req.Header.Set("Host", host)
		}
		var b bytes.Buffer
		req.Write(&b) // a bytes.Buffer write cannot fail
		in.request = b.Bytes()
		return nil
	}
	return errors.New("no retained probe span with a super-proxy request")
}

// replayTime is how long each replay measures.
const replayTime = 100 * time.Millisecond

// Sinks keep replayed results live so the calls are not optimized away.
var (
	sinkMsg    *dnswire.Message
	sinkBytes  []byte
	sinkReq    *httpwire.Request
	sinkResp   *httpwire.Response
	sinkParams proxynet.Params
	sinkErr    error
)

// nsPerOp runs op in batches for about replayTime and returns the median
// batch's ns per op. The batch size is doubled until a batch takes a
// millisecond, so clock reads are a negligible part of each batch.
func nsPerOp(op func()) float64 {
	n := 1
	for {
		t := wallNow()
		for i := 0; i < n; i++ {
			op()
		}
		if wallSince(t) >= time.Millisecond {
			break
		}
		n *= 2
	}
	var v []float64
	deadline := wallNow().Add(replayTime)
	for len(v) < 5 || wallNow().Before(deadline) {
		t := wallNow()
		for i := 0; i < n; i++ {
			op()
		}
		v = append(v, float64(wallSince(t).Nanoseconds())/float64(n))
	}
	return median(v)
}

// replay times the codecs and layers on the captured inputs, checking each
// decodes what was captured.
func replay(in *inputs, seed uint64) (map[string]metric, error) {
	m := map[string]metric{}

	msg, err := dnswire.Unmarshal(in.dnsResp)
	if err != nil {
		return nil, fmt.Errorf("replay dnswire: %w", err)
	}
	m["dnswire.unmarshal_ns"] = metric{nsPerOp(func() { sinkMsg, sinkErr = dnswire.Unmarshal(in.dnsResp) }), "ns"}
	m["dnswire.marshal_ns"] = metric{nsPerOp(func() { sinkBytes, sinkErr = msg.Marshal() }), "ns"}

	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	readReq := func() (*httpwire.Request, error) {
		rd.Reset(in.request)
		br.Reset(&rd)
		return httpwire.ReadRequest(br)
	}
	if _, err := readReq(); err != nil {
		return nil, fmt.Errorf("replay httpwire request: %w", err)
	}
	m["httpwire.read_request_ns"] = metric{nsPerOp(func() { sinkReq, sinkErr = readReq() }), "ns"}
	readResp := func() (*httpwire.Response, error) {
		rd.Reset(in.response)
		br.Reset(&rd)
		return httpwire.ReadResponse(br)
	}
	resp, err := readResp()
	if err != nil {
		return nil, fmt.Errorf("replay httpwire response: %w", err)
	}
	if len(resp.Body) != content.HTMLSize {
		return nil, fmt.Errorf("replay httpwire response: %d-byte body, want %d", len(resp.Body), content.HTMLSize)
	}
	kb := float64(len(in.response)) / 1024
	m["httpwire.read_response_ns_per_kb"] = metric{nsPerOp(func() { sinkResp, sinkErr = readResp() }) / kb, "ns/KB"}

	if p := proxynet.ParseUsername(in.username); p.User == "" || p.Session == "" {
		return nil, fmt.Errorf("replay username %q: parsed %+v", in.username, p)
	}
	m["proxynet.parse_username_ns"] = metric{nsPerOp(func() { sinkParams = proxynet.ParseUsername(in.username) }), "ns"}

	valid := 0
	for _, c := range in.chains {
		if in.trust.Verify(c.host, c.chain, in.at) == nil {
			valid++
		}
	}
	if valid == 0 {
		return nil, errors.New("replay cert: no captured chain verifies")
	}
	i := 0
	perChain := nsPerOp(func() {
		c := in.chains[i%len(in.chains)]
		i++
		sinkErr = in.trust.Verify(c.host, c.chain, in.at)
	})
	m["cert.verify_us"] = metric{perChain / 1e3, "us"}

	write1, err := pipeWrite1B()
	if err != nil {
		return nil, err
	}
	m["simnet.pipe_write_1b_ns"] = metric{write1, "ns"}
	bulk, err := pipeBulk(seed)
	if err != nil {
		return nil, err
	}
	m["simnet.pipe_64kb_mb_per_s"] = metric{bulk, "MB/s"}
	return m, nil
}

// pipeWrite1B times steady-state one-byte writes into a simnet pipe whose
// reader drains it: the pipe is set up and warmed before timing starts.
// The reader must receive one byte per write.
func pipeWrite1B() (float64, error) {
	w, r := simnet.Pipe(0)
	defer r.Close()
	read := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, r) // ends at EOF; a read error shows as a short count
		read <- n
	}()
	b := []byte{'x'}
	var writes int64
	var werr error
	write := func() {
		writes++
		if _, err := w.Write(b); err != nil {
			werr = err
		}
	}
	for i := 0; i < 1<<16; i++ {
		write()
	}
	ns := nsPerOp(write)
	w.Close()
	got := <-read
	switch {
	case werr != nil:
		return 0, fmt.Errorf("replay pipe write: %w", werr)
	case got != writes:
		return 0, fmt.Errorf("replay pipe write: reader got %d bytes of %d", got, writes)
	}
	return ns, nil
}

// pipeBulk is a simnet pipe's throughput for 64 KB writes in MB/s: the
// median of five 16 MB transfers, each timed from its first write until the
// reader holds the last byte, after one untimed transfer that warms the
// pipe and the reader's buffer. Each transfer's SHA-256 is checked against
// the payload's outside the timing, so hashing does not cap the figure.
func pipeBulk(seed uint64) (float64, error) {
	const block, blocks = 64 << 10, 256
	payload := make([]byte, block)
	rng := rand.New(rand.NewPCG(seed, 0x70697065))
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}
	want := sha256.New()
	for i := 0; i < blocks; i++ {
		want.Write(payload)
	}
	var wantSum [32]byte
	want.Sum(wantSum[:0])

	buf := make([]byte, block*blocks)
	var v []float64
	for run := 0; run <= 5; run++ {
		w, r := simnet.Pipe(0)
		read := make(chan int, 1)
		go func() {
			n, _ := io.ReadFull(r, buf) // a short transfer shows as a short count
			read <- n
		}()
		t := wallNow()
		var err error
		for i := 0; i < blocks && err == nil; i++ {
			_, err = w.Write(payload)
		}
		n := <-read
		elapsed := wallSince(t)
		w.Close()
		r.Close()
		switch {
		case err != nil:
			return 0, fmt.Errorf("replay pipe bulk write: %w", err)
		case n != len(buf) || sha256.Sum256(buf) != wantSum:
			return 0, errors.New("replay pipe bulk: payload corrupted or short")
		}
		if run > 0 {
			v = append(v, float64(len(buf))/1e6/elapsed.Seconds())
		}
	}
	return median(v), nil
}
