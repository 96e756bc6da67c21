package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		x := make([]float64, d)
		for a := range x {
			x[a] = rng.NormFloat64()*10 + 50
		}
		pts[i] = x
	}
	return pts
}

func TestNewNLQValidation(t *testing.T) {
	if _, err := NewNLQ(0, Full); err == nil {
		t.Fatal("d=0 must be rejected")
	}
	s, err := NewNLQ(3, Triangular)
	if err != nil || s.D != 3 {
		t.Fatalf("%v %v", s, err)
	}
}

func TestUpdateBasics(t *testing.T) {
	s := MustNLQ(2, Full)
	if err := s.Update([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update([]float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if s.N != 2 {
		t.Fatalf("N = %g", s.N)
	}
	if s.L[0] != 4 || s.L[1] != 6 {
		t.Fatalf("L = %v", s.L)
	}
	// Q = [[1+9, 2+12], [2+12, 4+16]]
	if s.QAt(0, 0) != 10 || s.QAt(0, 1) != 14 || s.QAt(1, 1) != 20 {
		t.Fatalf("Q = %v", s.Q)
	}
	if s.Min[0] != 1 || s.Max[1] != 4 {
		t.Fatalf("min/max = %v %v", s.Min, s.Max)
	}
	if err := s.Update([]float64{1}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestTriangularMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100, 5)
	full := MustNLQ(5, Full)
	tri := MustNLQ(5, Triangular)
	for _, x := range pts {
		full.Update(x)
		tri.Update(x)
	}
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if math.Abs(full.QAt(a, b)-tri.QAt(a, b)) > 1e-9 {
				t.Fatalf("Q[%d][%d]: full=%g tri=%g", a, b, full.QAt(a, b), tri.QAt(a, b))
			}
		}
	}
}

func TestDiagonalOnlyDiagonal(t *testing.T) {
	s := MustNLQ(3, Diagonal)
	s.Update([]float64{1, 2, 3})
	if s.QAt(0, 0) != 1 || s.QAt(1, 1) != 4 || s.QAt(2, 2) != 9 {
		t.Fatalf("diag = %v", s.Q)
	}
	if s.QAt(0, 1) != 0 {
		t.Fatalf("off-diagonal should be 0, got %g", s.QAt(0, 1))
	}
}

func TestMergeEqualsSequential(t *testing.T) {
	// Property: splitting a stream across P partial NLQs and merging
	// yields the same summaries as one sequential accumulation — the
	// correctness contract of the parallel aggregate UDF (phase 3).
	f := func(seed int64, parts uint8) bool {
		p := int(parts%8) + 2
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 200, 4)
		seq := MustNLQ(4, Triangular)
		partials := make([]*NLQ, p)
		for i := range partials {
			partials[i] = MustNLQ(4, Triangular)
		}
		for i, x := range pts {
			seq.Update(x)
			partials[i%p].Update(x)
		}
		merged := partials[0]
		for _, s := range partials[1:] {
			if err := merged.Merge(s); err != nil {
				return false
			}
		}
		if merged.N != seq.N {
			return false
		}
		for a := 0; a < 4; a++ {
			if math.Abs(merged.L[a]-seq.L[a]) > 1e-6 {
				return false
			}
			if merged.Min[a] != seq.Min[a] || merged.Max[a] != seq.Max[a] {
				return false
			}
			for b := 0; b <= a; b++ {
				if math.Abs(merged.QAt(a, b)-seq.QAt(a, b)) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	a := MustNLQ(3, Full)
	if err := a.Merge(MustNLQ(3, Diagonal)); err == nil {
		t.Fatal("type mismatch must fail")
	}
	if err := a.Merge(MustNLQ(4, Full)); err == nil {
		t.Fatal("dims mismatch must fail")
	}
}

func TestMeanAndReset(t *testing.T) {
	s := MustNLQ(2, Diagonal)
	if _, err := s.Mean(); err == nil {
		t.Fatal("mean of empty must fail")
	}
	s.Update([]float64{2, 4})
	s.Update([]float64{4, 8})
	mu, err := s.Mean()
	if err != nil || mu[0] != 3 || mu[1] != 6 {
		t.Fatalf("mu = %v, %v", mu, err)
	}
	s.Reset()
	if s.N != 0 || s.L[0] != 0 || s.Q[0] != 0 || !math.IsInf(s.Min[0], 1) {
		t.Fatal("reset incomplete")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustNLQ(2, Full)
	s.Update([]float64{1, 1})
	c := s.Clone()
	c.Update([]float64{5, 5})
	if s.N != 1 || c.N != 2 {
		t.Fatalf("clone aliases: %g %g", s.N, c.N)
	}
}

func TestHeapBytesWithinSegment(t *testing.T) {
	// MaxD must respect the 64 KB segment; MaxD+32 must not.
	if b := MustNLQ(MaxD, Full).HeapBytes(); b > 64*1024 {
		t.Fatalf("MaxD state takes %d bytes", b)
	}
	if b := MustNLQ(MaxD+32, Full).HeapBytes(); b <= 64*1024 {
		t.Fatalf("MaxD+32 state fits in %d bytes; MaxD is too small", b)
	}
}

func TestMatrixTypeParse(t *testing.T) {
	for s, want := range map[string]MatrixType{
		"diag": Diagonal, "diagonal": Diagonal,
		"triang": Triangular, "triangular": Triangular,
		"full": Full,
	} {
		got, err := ParseMatrixType(s)
		if err != nil || got != want {
			t.Errorf("ParseMatrixType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMatrixType("sparse"); err == nil {
		t.Error("unknown type must fail")
	}
	if Diagonal.String() != "diag" || Triangular.String() != "triang" || Full.String() != "full" {
		t.Error("String() names changed")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
		s := MustNLQ(4, mt)
		for _, x := range randPoints(rng, 50, 4) {
			s.Update(x)
		}
		got, err := Unpack(s.Pack())
		if err != nil {
			t.Fatalf("%v: %v", mt, err)
		}
		if got.N != s.N || got.D != s.D || got.Type != s.Type {
			t.Fatalf("%v: header mismatch", mt)
		}
		for a := 0; a < 4; a++ {
			if got.L[a] != s.L[a] || got.Min[a] != s.Min[a] || got.Max[a] != s.Max[a] {
				t.Fatalf("%v: vector mismatch", mt)
			}
			for b := 0; b < 4; b++ {
				if got.QAt(a, b) != s.QAt(a, b) {
					t.Fatalf("%v: Q[%d][%d] %g != %g", mt, a, b, got.QAt(a, b), s.QAt(a, b))
				}
			}
		}
	}
}

func TestUnpackErrors(t *testing.T) {
	bad := []string{
		"",
		"1;2;3",
		"x;full;1;1;1;1;1",
		"2;nope;0;0|0;0|0|0;0|0;0|0",
		"2;full;0;0|0;0|0|0;0|0;0|0",   // wrong Q arity
		"2;diag;0;0|0;0|0|0;0|0;0|0",   // wrong diag arity
		"2;triang;0;0|0;0|0;0|0;0|0",   // wrong tri arity (needs 3)
		"2;full;z;0|0;0|0|0|0;0|0;0|0", // bad n
		"2000000000;full;0;0;0;0;0",    // forged d: must be refused before sizing d×d
	}
	for _, s := range bad {
		if _, err := Unpack(s); err == nil {
			t.Errorf("Unpack(%q) must fail", s)
		}
	}
}

func TestComputeNLQFromSource(t *testing.T) {
	src := SliceSource{{1, 2}, {3, 4}, {5, 6}}
	s, err := ComputeNLQ(src, Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.L[0] != 9 || s.L[1] != 12 {
		t.Fatalf("%+v", s)
	}
	bad := SliceSource{{1, 2}, {3}}
	if _, err := ComputeNLQ(bad, Full); err == nil {
		t.Fatal("ragged source must fail")
	}
}

// requireSameBits fails unless two accumulators hold bit-identical
// state.
func requireSameBits(t *testing.T, got, want *NLQ) {
	t.Helper()
	if got.D != want.D || got.Type != want.Type {
		t.Fatalf("shape (%d,%v) != (%d,%v)", got.D, got.Type, want.D, want.Type)
	}
	if math.Float64bits(got.N) != math.Float64bits(want.N) {
		t.Fatalf("%v d=%d: N %v != %v", got.Type, got.D, got.N, want.N)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"L", got.L, want.L}, {"Min", got.Min, want.Min}, {"Max", got.Max, want.Max}, {"Q", got.Q, want.Q}} {
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				t.Fatalf("%v d=%d: %s[%d] %v != %v", got.Type, got.D, v.name, i, v.got[i], v.want[i])
			}
		}
	}
}

// plainUpdate is the straightforward triple loop, the independent
// reference every kernel body is checked against. Its product is
// float64(…) for the reason the kernel's are: no fused multiply-add.
func plainUpdate(s *NLQ, x []float64) {
	s.N++
	for a, v := range x {
		s.L[a] += v
		if v < s.Min[a] {
			s.Min[a] = v
		}
		if v > s.Max[a] {
			s.Max[a] = v
		}
		lo, hi := 0, s.D
		switch s.Type {
		case Diagonal:
			lo, hi = a, a+1
		case Triangular:
			hi = a + 1
		}
		for b := lo; b < hi; b++ {
			s.Q[a*s.D+b] += float64(x[b] * v)
		}
	}
}

// TestUpdateBitIdentical: three ways of folding the same rows must leave
// *bit identical* state — the register-tiled Update, the plain triple
// loop it replaced, and the block kernel over the valid rows (dense and
// masked) — at every tile-remainder shape. Update == UpdateBlock is the
// property that makes columnar partials merge byte-for-byte with
// row-path partials in the coordinator's push-down algebra.
func TestUpdateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 64} {
		rows := rng.Intn(300)
		cols := make([][]float64, d)
		for a := range cols {
			cols[a] = make([]float64, rows)
			for r := range cols[a] {
				cols[a][r] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		dense, masked := make([]bool, rows), make([]bool, rows)
		for r := range dense {
			dense[r], masked[r] = true, rng.Float64() > 0.3
		}
		for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
			for _, valid := range [][]bool{dense, masked} {
				tiled, plain, blk := MustNLQ(d, mt), MustNLQ(d, mt), MustNLQ(d, mt)
				x := make([]float64, d)
				for r := 0; r < rows; r++ {
					if !valid[r] {
						continue
					}
					for a := range x {
						x[a] = cols[a][r]
					}
					if err := tiled.Update(x); err != nil {
						t.Fatal(err)
					}
					plainUpdate(plain, x)
				}
				if err := blk.UpdateBlock(cols, valid); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, tiled, plain)
				requireSameBits(t, tiled, blk)
			}
		}
	}
}

// TestAddOuterRectangular covers the blocked strategy's rw×cw update
// (BlockResult.Update: L/min/max over the row range, Q += xr·xcᵀ) at
// shapes where neither side is a multiple of the tile, over tiles of 1
// to TileRows points: a point's row range then its column range, or,
// for a diagonal block, its row range alone.
func TestAddOuterRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][3]int{{1, 1, 0}, {3, 9, 0}, {4, 4, 0}, {6, 5, 0}, {9, 3, 0}, {64, 37, 0}, {1, 1, 1}, {5, 5, 1}, {64, 64, 1}} {
		rw, cw, diag := shape[0], shape[1], shape[2] == 1
		got, want := NewBlockResult(rw, cw), NewBlockResult(rw, cw)
		for n := 0; n < 50; {
			k := min(1+rng.Intn(TileRows), 50-n)
			var tile []float64
			for _, xr := range randPoints(rng, k, rw) {
				xc := xr
				if !diag {
					xc = randPoints(rng, 1, cw)[0]
					tile = append(tile, xr...)
				}
				tile = append(tile, xc...)
				plainBlockUpdate(want, xr, xc)
			}
			got.Update(tile, k)
			n += k
		}
		requireSameBits(t, blockAsNLQ(got), blockAsNLQ(want))
	}
}

// plainBlockUpdate is plainUpdate for a rectangular block.
func plainBlockUpdate(r *BlockResult, xr, xc []float64) {
	r.N++
	for a, va := range xr {
		r.L[a] += va
		if va < r.Min[a] {
			r.Min[a] = va
		}
		if va > r.Max[a] {
			r.Max[a] = va
		}
		for c, vc := range xc {
			r.Q[a*len(xc)+c] += float64(vc * va)
		}
	}
}

// blockAsNLQ views a block result as the accumulator requireSameBits
// compares.
func blockAsNLQ(r *BlockResult) *NLQ {
	return &NLQ{D: len(r.L), Type: Full, N: r.N, L: r.L, Min: r.Min, Max: r.Max, Q: r.Q}
}

// TestUpdateBlockSplitInvariance: feeding one big block or many small
// ones (the storage layer's chunking) accumulates identically.
func TestUpdateBlockSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d, rows = 4, 257
	cols := make([][]float64, d)
	for a := range cols {
		cols[a] = make([]float64, rows)
		for r := range cols[a] {
			cols[a][r] = rng.NormFloat64()
		}
	}
	valid := make([]bool, rows)
	for r := range valid {
		valid[r] = rng.Float64() > 0.1
	}
	one := MustNLQ(d, Triangular)
	if err := one.UpdateBlock(cols, valid); err != nil {
		t.Fatal(err)
	}
	many := MustNLQ(d, Triangular)
	for off := 0; off < rows; off += 64 {
		end := off + 64
		if end > rows {
			end = rows
		}
		sub := make([][]float64, d)
		for a := range sub {
			sub[a] = cols[a][off:end]
		}
		if err := many.UpdateBlock(sub, valid[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range one.Q {
		if math.Float64bits(one.Q[i]) != math.Float64bits(many.Q[i]) {
			t.Fatalf("Q[%d] diverges across block splits", i)
		}
	}
	if one.N != many.N {
		t.Fatalf("N %v != %v", one.N, many.N)
	}
}

func TestUpdateBlockValidation(t *testing.T) {
	s := MustNLQ(2, Full)
	if err := s.UpdateBlock([][]float64{{1}}, []bool{true}); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
	if err := s.UpdateBlock([][]float64{{1}, {2, 3}}, []bool{true}); err == nil {
		t.Fatal("ragged columns must be rejected")
	}
	if err := s.UpdateBlock([][]float64{{}, {}}, nil); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	if s.N != 0 {
		t.Fatal("empty block must not touch N")
	}
}
