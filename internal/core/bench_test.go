package core

import (
	"fmt"
	"testing"
)

// BenchmarkNLQUpdate is the per-row cost the aggregate UDF pays, swept
// over d for each matrix type (the paper's operation-count story).
// GFLOP/s counts the Q update alone — one multiply and one add per
// maintained slot: d, d(d+1)/2 or d² slots — which is the bound the
// perf ledger's core.update_gflops is read against.
func BenchmarkNLQUpdate(b *testing.B) {
	for _, d := range []int{8, 32, 64} {
		x := make([]float64, d)
		for i := range x {
			x[i] = float64(i) * 1.1
		}
		for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
			slots := map[MatrixType]int{Diagonal: d, Triangular: d * (d + 1) / 2, Full: d * d}[mt]
			b.Run(fmt.Sprintf("d=%d/%s", d, mt), func(b *testing.B) {
				s := MustNLQ(d, mt)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.Update(x); err != nil {
						b.Fatal(err)
					}
				}
				nsPerPoint := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(nsPerPoint, "ns/point")
				b.ReportMetric(2*float64(slots)/nsPerPoint, "GFLOP/s")
			})
		}
	}
}

// BenchmarkPackUnpack — the packed-string result codec.
func BenchmarkPackUnpack(b *testing.B) {
	s := MustNLQ(32, Triangular)
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i)
	}
	for i := 0; i < 100; i++ {
		s.Update(x)
	}
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Pack()
		}
	})
	packed := s.Pack()
	b.Run("unpack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Unpack(packed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzUnpack feeds arbitrary text to the packed-summary parser, which
// reads what a UDF returned, what a shard sent and what a server
// replied. It must reject or accept without panicking, allocate no more
// than the input justifies, and whatever it accepts must survive a
// Pack/Unpack round trip unchanged.
func FuzzUnpack(f *testing.F) {
	for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
		s := MustNLQ(3, mt)
		s.Update([]float64{1, -2.5, 1e300})
		s.Update([]float64{0, 7, -1e-300})
		f.Add(s.Pack())
	}
	f.Add("")
	f.Add("2;full;0;0|0;0|0|0;0|0;0|0")
	f.Add("2000000000;full;0;0;0;0;0")
	f.Add("1;diag;NaN;Inf;-Inf;1;1")
	f.Fuzz(func(t *testing.T, packed string) {
		s, err := Unpack(packed)
		if err != nil {
			return
		}
		again, err := Unpack(s.Pack())
		if err != nil {
			t.Fatalf("Unpack accepted %q but rejects its own re-pack: %v", packed, err)
		}
		if again.Pack() != s.Pack() {
			t.Fatalf("round trip of %q is not stable:\n%s\n%s", packed, s.Pack(), again.Pack())
		}
	})
}
