package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"github.com/tftproject/tft/internal/content"
)

// wireResponse serializes a 200 response carrying body.
func wireResponse(t testing.TB, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewResponse(200, body).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patterned returns n bytes that differ with seed, so a body read into a
// recycled buffer cannot pass by matching a previous occupant.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

func TestBodyPoolSizes(t *testing.T) {
	for _, n := range []int{
		0, 1, minPooledBody - 1, minPooledBody,
		1 << 12, 1<<12 + 1, 1 << 16, 1<<16 + 1,
		MaxBodyBytes,
	} {
		body := patterned(n, byte(n))
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(wireResponse(t, body))))
		if err != nil {
			t.Fatalf("%d-byte body: %v", n, err)
		}
		if !bytes.Equal(resp.Body, body) {
			t.Fatalf("%d-byte body read back as %d bytes, not byte-exact", n, len(resp.Body))
		}
		if pooled := resp.buf != nil; pooled != (n >= minPooledBody) {
			t.Fatalf("%d-byte body: pooled = %v", n, pooled)
		}
		if resp.buf != nil && len(resp.Body) != cap(resp.Body) {
			t.Fatalf("%d-byte pooled body has len %d, cap %d; want len == cap", n, len(resp.Body), cap(resp.Body))
		}
		resp.Release()
	}
}

// TestTruncatedPooledBodyReturnsBuffer reads the same truncated 1 MB body
// over and over: a short read that kept its buffer would allocate a fresh
// 1 MB buffer each time. (The race detector makes sync.Pool drop a quarter
// of its Puts, hence the margin.)
func TestTruncatedPooledBodyReturnsBuffer(t *testing.T) {
	const n, rounds = 1 << 20, 64
	wire := wireResponse(t, patterned(n, 1))
	wire = wire[:len(wire)-n/2]
	read := func() {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(wire)))
		if !errors.Is(err, io.ErrUnexpectedEOF) || resp != nil {
			t.Fatalf("truncated body: resp = %v, err = %v; want nil, io.ErrUnexpectedEOF", resp, err)
		}
	}
	read() // warm the class
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		read()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > rounds*n/2 {
		t.Fatalf("%d truncated reads allocated %d bytes; the body buffer leaks on a short read", rounds, got)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	var nilResp *Response
	nilResp.Release()

	body := []byte("not pooled")
	built := NewResponse(200, body)
	built.Release()
	if !bytes.Equal(built.Body, body) {
		t.Fatalf("Release changed a NewResponse body: %q", built.Body)
	}

	resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(wireResponse(t, patterned(minPooledBody, 3)))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	if resp.Body != nil || resp.buf != nil {
		t.Fatal("Release left the body in place")
	}
	resp.Release()
}

// TestBodyPoolConcurrent reads and releases bodies of several classes from
// many goroutines; under -race it also checks that a released buffer is
// never handed to two readers at once.
func TestBodyPoolConcurrent(t *testing.T) {
	sizes := []int{minPooledBody, 3 << 10, 9 << 10, 39 << 10}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				body := patterned(sizes[i%len(sizes)], byte(g*31+i))
				resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(wireResponse(t, body))))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp.Body, body) {
					t.Errorf("goroutine %d read %d: body corrupted", g, i)
					return
				}
				resp.Release()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkReadResponse parses a §5 object off the wire and releases it, as
// every hop of a proxied GET does.
func BenchmarkReadResponse(b *testing.B) {
	for _, k := range []content.Kind{content.KindHTML, content.KindJS} {
		wire := wireResponse(b, content.Object(k))
		b.Run(k.String(), func(b *testing.B) {
			rd := bytes.NewReader(wire)
			br := bufio.NewReader(rd)
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(wire)
				br.Reset(rd)
				resp, err := ReadResponse(br)
				if err != nil {
					b.Fatal(err)
				}
				resp.Release()
			}
		})
	}
}
