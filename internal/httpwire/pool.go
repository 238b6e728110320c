package httpwire

import (
	"bufio"
	"io"
	"math/bits"
	"sync"
)

// readerPool recycles the bufio.Readers each connection wraps around its
// read side. A proxied probe crosses three hops and every hop used to
// allocate a fresh 4KB reader; at crawl scale that churn dominated the
// allocation profile, so parsing paths borrow readers here instead.
var readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// GetReader returns a pooled bufio.Reader reading from r. Pair it with
// PutReader when the connection's parsing is finished — but only when the
// reader does not outlive the call (a reader handed to a tunnel or stored
// on a connection must stay out of the pool).
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader returns br to the pool. The caller must not touch br again;
// any bytes still buffered are discarded.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// writerPool recycles the bufio.Writers Request.Write and Response.Write
// serialize through. Writers never escape those calls, so pooling is
// invisible to callers.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// Response bodies of at least minPooledBody bytes are read into buffers
// recycled per power-of-two size class. This pool is the one exception to
// the in-function lifetime rule above: a body outlives ReadResponse, so the
// Response owns its buffer and Release is the only way back (see Response).
// Smaller and empty bodies keep an exact make — most of them (DNS probe
// pages, CONNECT replies) are never released, and rounding them up to a
// class would only cost.
const (
	minPooledBodyShift = 11 // 2 KB: every §5 object is pooled, CSS (3 KB) included
	minPooledBody      = 1 << minPooledBodyShift
	maxPooledBodyShift = 23 // MaxBodyBytes
)

// bodyPools[k] holds *[]byte buffers of capacity exactly 1<<(k+minPooledBodyShift).
var bodyPools [maxPooledBodyShift - minPooledBodyShift + 1]sync.Pool

// bodyClass returns the pool index of the smallest class holding n bytes
// (minPooledBody <= n <= MaxBodyBytes).
func bodyClass(n int) int { return bits.Len(uint(n-1)) - minPooledBodyShift }

// getBody returns a buffer of the class holding n bytes.
func getBody(n int) *[]byte {
	k := bodyClass(n)
	if bp, ok := bodyPools[k].Get().(*[]byte); ok {
		return bp
	}
	b := make([]byte, 1<<(k+minPooledBodyShift))
	return &b
}

// putBody returns a buffer from getBody to its class.
func putBody(bp *[]byte) { bodyPools[bodyClass(cap(*bp))].Put(bp) }
