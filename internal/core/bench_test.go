package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkNLQUpdate is the per-row cost the aggregate UDF pays, swept
// over d for each matrix type (the paper's operation-count story).
// GFLOP/s counts the Q update alone — one multiply and one add per
// maintained slot: d, d(d+1)/2 or d² slots — which is the bound the
// perf ledger's core.update_gflops is read against. It cycles a ring of
// 64 seeded points: one constant point would train the min/max branches
// of the Go body perfectly.
func BenchmarkNLQUpdate(b *testing.B) {
	for _, d := range []int{8, 32, 64} {
		ring := randPoints(rand.New(rand.NewSource(int64(d))), 64, d)
		for _, mt := range matrixTypes {
			slots := map[MatrixType]int{Diagonal: d, Triangular: d * (d + 1) / 2, Full: d * d}[mt]
			b.Run(fmt.Sprintf("d=%d/%s", d, mt), func(b *testing.B) {
				s := MustNLQ(d, mt)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.Update(ring[i%len(ring)]); err != nil {
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

// BenchmarkNLQUpdateTile is the kernel's per-row cost when one call
// folds k rows: k = 1 is NLQ.Update's tile, k = TileRows the tile
// UpdateBlock and nlq_list hand it. The same ring of 64 seeded points as
// BenchmarkNLQUpdate, stored row-major, goes through NLQ.UpdateRows k
// points at a time; GFLOP/s counts the Q update alone, as there.
func BenchmarkNLQUpdateTile(b *testing.B) {
	for _, d := range []int{8, 32, 64} {
		var ring []float64
		for _, x := range randPoints(rand.New(rand.NewSource(int64(d))), 64, d) {
			ring = append(ring, x...)
		}
		for _, mt := range matrixTypes {
			slots := map[MatrixType]int{Diagonal: d, Triangular: d * (d + 1) / 2, Full: d * d}[mt]
			for _, k := range []int{1, TileRows} {
				b.Run(fmt.Sprintf("d=%d/%s/k=%d", d, mt, k), func(b *testing.B) {
					s := MustNLQ(d, mt)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						o := i * k % 64 * d
						if err := s.UpdateRows(ring[o : o+k*d]); err != nil {
							b.Fatal(err)
						}
					}
					nsPerRow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(k)
					b.ReportMetric(nsPerRow, "ns/row")
					b.ReportMetric(2*float64(slots)/nsPerRow, "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkNLQUpdateBlock is the per-row cost of the columnar path at
// d = 32 over 4 096-row blocks (the segment chunk size), dense and with
// 30 % of the rows masked out; ns/row counts every row of the block.
func BenchmarkNLQUpdateBlock(b *testing.B) {
	const d, rows = 32, 4096
	rng := rand.New(rand.NewSource(32))
	cols := make([][]float64, d)
	for a := range cols {
		cols[a] = make([]float64, rows)
		for r := range cols[a] {
			cols[a][r] = rng.NormFloat64()
		}
	}
	dense, masked := make([]bool, rows), make([]bool, rows)
	for r := range dense {
		dense[r], masked[r] = true, rng.Float64() >= 0.3
	}
	for _, mt := range matrixTypes {
		for _, v := range []struct {
			name  string
			valid []bool
		}{{"dense", dense}, {"masked", masked}} {
			b.Run(fmt.Sprintf("%s/%s", mt, v.name), func(b *testing.B) {
				s := MustNLQ(d, mt)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.UpdateBlock(cols, v.valid); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
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
