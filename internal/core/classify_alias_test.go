package core

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
)

// readWire serializes a response and parses it back, so its body sits in
// a pooled buffer exactly as a proxied object's does at the client.
func readWire(t *testing.T, status int, body []byte) *httpwire.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := httpwire.NewResponse(status, body).Write(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClassifyKeptBodySurvivesRelease: measure releases each response after
// classify, and the next read of the same size class reuses the buffer. A
// body classify keeps (modified HTML, a block page) must not alias it.
func TestClassifyKeptBodySurvivesRelease(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		want   ObjectOutcome
	}{
		{"modified", 200, ObjModified},
		{"blocked", 403, ObjBlocked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := bytes.Clone(content.Object(content.KindHTML))
			body[100] ^= 0xff
			resp := readWire(t, tc.status, body)
			r := classify(content.KindHTML, resp.StatusCode, resp.Body)
			if r.Outcome != tc.want {
				t.Fatalf("outcome = %v, want %v", r.Outcome, tc.want)
			}
			resp.Release()
			readWire(t, 200, bytes.Repeat([]byte("x"), len(body)))
			if !bytes.Equal(r.Body, body) {
				t.Fatal("kept body changed after its response was released and the buffer reused")
			}
		})
	}
}
