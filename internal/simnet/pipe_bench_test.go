package simnet

import (
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
)

var bg = context.Background()

func mustParse(s string) netip.Addr { return netip.MustParseAddr(s) }

// benchStream measures one-directional throughput over a conn pair: a
// writer pushes b.N writes of size bytes while a drain goroutine consumes.
// The same harness runs against the buffered Pipe and net.Pipe so the
// ns/op columns are directly comparable (the BENCH_n.json trajectory and
// the check gate's smoke run both key off these names).
func benchStream(b *testing.B, size int, dial func() (net.Conn, net.Conn)) {
	w, r := dial()
	defer w.Close()
	defer r.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(io.Discard, r)
	}()
	buf := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
	<-done
}

func pipePair() (net.Conn, net.Conn)    { a, c := Pipe(0); return a, c }
func netPipePair() (net.Conn, net.Conn) { return net.Pipe() }

func BenchmarkPipeWrite1B(b *testing.B)    { benchStream(b, 1, pipePair) }
func BenchmarkPipeWrite1KB(b *testing.B)   { benchStream(b, 1<<10, pipePair) }
func BenchmarkPipeWrite64KB(b *testing.B)  { benchStream(b, 64<<10, pipePair) }
func BenchmarkNetPipeWrite1B(b *testing.B) { benchStream(b, 1, netPipePair) }
func BenchmarkNetPipeWrite1KB(b *testing.B) {
	benchStream(b, 1<<10, netPipePair)
}
func BenchmarkNetPipeWrite64KB(b *testing.B) {
	benchStream(b, 64<<10, netPipePair)
}

// BenchmarkPipeDialRoundTrip measures a full fabric dial + 1KB echo —
// the per-connection cost every simulated probe pays three times.
func BenchmarkPipeDialRoundTrip(b *testing.B) {
	f := NewFabric()
	srv := mustParse("10.9.9.9")
	cli := mustParse("10.9.9.1")
	f.HandleTCP(srv, 80, func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 1<<10)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write(buf)
		}
	})
	payload := make([]byte, 1<<10)
	buf := make([]byte, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := f.Dial(bg, cli, srv, 80)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkPipeDialLargeResponse measures a fabric dial whose inline
// handler answers with a 258 KB body — the §5 script object — so the
// service-side ring grows past its window, as on every object fetch. The
// reader drains it in 32 KB reads.
func BenchmarkPipeDialLargeResponse(b *testing.B) {
	f := NewFabric()
	srv := mustParse("10.9.9.9")
	cli := mustParse("10.9.9.1")
	resp := make([]byte, 258<<10)
	f.HandleTCP(srv, 80, func(c net.Conn) {
		defer c.Close()
		req := make([]byte, 4)
		if _, err := io.ReadFull(c, req); err == nil {
			c.Write(resp)
		}
	})
	req := []byte("GET\n")
	buf := make([]byte, 32<<10)
	b.SetBytes(int64(len(resp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := f.Dial(bg, cli, srv, 80)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			k, err := conn.Read(buf)
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if n != len(resp) {
			b.Fatalf("read %d bytes, want %d", n, len(resp))
		}
		conn.Close()
	}
}
