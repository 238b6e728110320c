package simnet

import (
	"crypto/sha256"
	"io"
	"net"
	"testing"
)

// drainPool empties p, returning the capacities of the buffers it held.
func drainPool(p interface{ Get() any }) []int {
	var caps []int
	for {
		b, _ := p.Get().(*[]byte)
		if b == nil {
			return caps
		}
		caps = append(caps, cap(*b))
	}
}

// TestGrowRingRecyclesBySizeClass drives the grow path the §5 object
// fetch takes: a sequential handler answers two consecutive dials with a
// response several windows long. Both transfers must arrive byte-exact,
// and once both pairs close, the grown storage must not have landed in
// the DefaultWindow pool that ordinary rings draw from.
func TestGrowRingRecyclesBySizeClass(t *testing.T) {
	drainPool(&ringBufPool)
	drainPool(&grownBufPool)

	resp := make([]byte, 300<<10)
	for i := range resp {
		resp[i] = byte(i*7 + i>>11)
	}
	want := sha256.Sum256(resp)
	f := NewFabric()
	srv, cli := mustParse("10.9.9.9"), mustParse("10.9.9.1")
	f.HandleTCP(srv, 80, func(c net.Conn) {
		defer c.Close()
		req := make([]byte, 4)
		if _, err := io.ReadFull(c, req); err == nil {
			c.Write(resp)
		}
	})
	for i := 0; i < 2; i++ {
		conn, err := f.Dial(bg, cli, srv, 80)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("GET\n")); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if sha256.Sum256(got) != want {
			t.Fatalf("dial %d: response (%d bytes) not byte-exact", i, len(got))
		}
		conn.Close()
	}
	for _, c := range drainPool(&ringBufPool) {
		if c != DefaultWindow {
			t.Errorf("ringBufPool holds a buffer of cap %d, want exactly %d", c, DefaultWindow)
		}
	}
}

// fillRing resets r to a fully occupied window over a fresh buffer: the
// bytes 0..window-1 (mod 256), wrapped so the oldest sits at start.
func fillRing(r *ring, window, start int) {
	r.window, r.buf, r.bufp, r.start, r.n = window, make([]byte, window), nil, start, window
	for i := 0; i < window; i++ {
		r.buf[(start+i)%window] = byte(i)
	}
}

// checkRingOrder drains r and checks it yields 0..n-1 (mod 256).
func checkRingOrder(t *testing.T, r *ring, n int) {
	t.Helper()
	out := make([]byte, n)
	if got := r.copyOut(out); got != n {
		t.Fatalf("copyOut = %d, want %d", got, n)
	}
	for i, b := range out {
		if b != byte(i) {
			t.Fatalf("byte %d = %d after grow, want %d", i, b, byte(i))
		}
	}
}

// poolTries bounds the retries of pool checks: under the race detector
// sync.Pool drops a random quarter of its Puts, so a single round trip
// through a pool may legitimately miss.
const poolTries = 20

// TestGrowBufKeepsOrder checks the grow path: a full DefaultWindow ring
// whose data wraps moves to a doubled window with its bytes in order, and
// its old buffer goes back to ringBufPool, not grownBufPool.
func TestGrowBufKeepsOrder(t *testing.T) {
	for try := 0; try < poolTries; try++ {
		drainPool(&ringBufPool)
		drainPool(&grownBufPool)
		var r ring
		fillRing(&r, DefaultWindow, 5)
		r.growBuf(1)
		if r.window != 2*DefaultWindow || len(r.buf) != r.window {
			t.Fatalf("window %d, len %d: want %d", r.window, len(r.buf), 2*DefaultWindow)
		}
		checkRingOrder(t, &r, DefaultWindow)
		if caps := drainPool(&grownBufPool); len(caps) != 0 {
			t.Fatalf("grownBufPool holds caps %v before any grown ring closed", caps)
		}
		if caps := drainPool(&ringBufPool); len(caps) == 1 && caps[0] == DefaultWindow {
			return
		}
	}
	t.Fatalf("the old DefaultWindow buffer never reached ringBufPool in %d tries", poolTries)
}

// TestEnsureBufLargeWindowPooled checks that a ring whose window exceeds
// DefaultWindow takes its storage from grownBufPool when a buffer there
// is large enough, and allocates rather than take one that is too small.
func TestEnsureBufLargeWindowPooled(t *testing.T) {
	const window = 2 * DefaultWindow
	small := make([]byte, 0, window-1)
	drainPool(&grownBufPool)
	grownBufPool.Put(&small)
	var r ring
	r.window = window
	r.ensureBuf()
	if r.bufp == &small || len(r.buf) != window {
		t.Fatalf("ensureBuf took a %d-byte buffer for a %d-byte window", cap(r.buf), window)
	}

	big := make([]byte, 0, 2*window)
	for try := 0; try < poolTries; try++ {
		drainPool(&grownBufPool)
		grownBufPool.Put(&big)
		var r ring
		r.window = window
		r.ensureBuf()
		if len(r.buf) != window {
			t.Fatalf("len(buf) = %d, want %d", len(r.buf), window)
		}
		if r.bufp == &big {
			return
		}
	}
	t.Fatalf("ensureBuf never reused a pooled grown buffer in %d tries", poolTries)
}
