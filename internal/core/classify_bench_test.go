package core

import (
	"bytes"
	"testing"

	"github.com/tftproject/tft/internal/content"
)

// BenchmarkClassifyJS measures the per-node cost of judging the largest
// §5 object: the 258 KB script as it arrives off the wire (its own copy),
// compared byte for byte with the canonical one.
func BenchmarkClassifyJS(b *testing.B) {
	body := bytes.Clone(content.Object(content.KindJS))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := classify(content.KindJS, 200, body); r.Outcome != ObjUnmodified {
			b.Fatalf("outcome = %v, want unmodified", r.Outcome)
		}
	}
}
