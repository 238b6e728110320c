package core

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/tlssim"
)

// stubSuperProxy is a real-TCP super proxy that accepts every CONNECT with
// a bare 200 — no X-Hola-Timeline-Debug header, so no zID — and then
// serves a valid certificate chain for whatever name the client asks.
func stubSuperProxy(t *testing.T, chain []*cert.Certificate) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go proxynet.ServeListener(l, func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := httpwire.ReadRequest(br); err != nil {
			return
		}
		if err := httpwire.NewResponse(200, nil).Write(conn); err != nil {
			return
		}
		tlssim.ServeOnce(struct {
			io.Reader
			io.Writer
		}{br, conn}, func(string) []*cert.Certificate { return chain })
	})
	return l.Addr().String()
}

// TestTLSRejectsResponseWithoutZID: a CONNECT that succeeds without naming
// its exit node identifies nothing. The probe must fail and no node may be
// counted, as in every other experiment.
func TestTLSRejectsResponseWithoutZID(t *testing.T) {
	epoch := time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)
	root := cert.NewRootCA(cert.Name{CommonName: "Root"}, "root", epoch.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		DNSNames: []string{"site.example"}, NotBefore: epoch.Add(-time.Hour), NotAfter: epoch.Add(time.Hour), KeySeed: "leaf"})
	chain := []*cert.Certificate{leaf, root.Cert}
	addr := stubSuperProxy(t, chain)

	site := TLSSite{Host: "site.example", IP: netip.MustParseAddr("192.0.2.1"), KnownChain: chain}
	exp := &TLSExperiment{
		Client: &proxynet.Client{Net: &proxynet.TCPDialer{
			MapAddr: func(netip.Addr, uint16) string { return addr }, Timeout: 2 * time.Second}},
		Geo:   geo.NewRegistry(),
		Trust: cert.NewStore(root.Cert),
		Targets: &TLSTargets{
			Popular:      map[geo.CountryCode][]TLSSite{"DE": {site}},
			Universities: []TLSSite{site},
			Invalid:      []TLSSite{site},
		},
		Weights: map[geo.CountryCode]int{"DE": 1},
		Crawl:   CrawlConfig{Workers: 1, MaxSessions: 3},
		Now:     func() time.Time { return epoch },
	}
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) != 0 || ds.Crawl.UniqueNodes != 0 {
		t.Fatalf("measured %d observations, %d unique nodes from responses without a zID",
			len(ds.Observations), ds.Crawl.UniqueNodes)
	}
	if ds.Failures != 3 || ds.Duplicates != 0 {
		t.Fatalf("failures=%d duplicates=%d, want every session failed", ds.Failures, ds.Duplicates)
	}
}
