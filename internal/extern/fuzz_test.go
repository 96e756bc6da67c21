package extern

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzExternComputeNLQ: the analyzer parses untrusted text. Any bytes
// give an error or a summary of exactly one point per non-empty line,
// never a panic.
func FuzzExternComputeNLQ(f *testing.F) {
	f.Add([]byte("1,2\n3,4\n"), uint8(2), false, uint8(0))
	f.Add([]byte("0,1.5,-2\r\n1,NaN,Inf\r\n\r\n2,1e308,-0"), uint8(2), true, uint8(2))
	f.Add([]byte("\n\n\r\n"), uint8(1), false, uint8(1))
	f.Add([]byte("1,,2\n"), uint8(3), false, uint8(0))
	f.Add([]byte("0x1p-2,1_000\n"), uint8(2), false, uint8(1))
	f.Add([]byte("1,2\x00\n"), uint8(2), false, uint8(0))
	types := []core.MatrixType{core.Diagonal, core.Triangular, core.Full}
	f.Fuzz(func(t *testing.T, data []byte, d uint8, skipID bool, mt uint8) {
		dims := int(d%8) + 1
		s, err := ComputeNLQ(bytes.NewReader(data), dims, Options{SkipLeadingID: skipID, MatrixType: types[int(mt)%len(types)]})
		if err != nil {
			return
		}
		lines := 0
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimRight(line, "\r") != "" {
				lines++
			}
		}
		if s.N != float64(lines) || s.D != dims {
			t.Fatalf("%q, d = %d: summary of %v points in %d dimensions, want %d points", data, dims, s.N, s.D, lines)
		}
	})
}
