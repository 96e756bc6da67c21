package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveCovariance computes V directly from the points for comparison.
func naiveCovariance(pts [][]float64) [][]float64 {
	n := float64(len(pts))
	d := len(pts[0])
	mu := make([]float64, d)
	for _, x := range pts {
		for a, v := range x {
			mu[a] += v / n
		}
	}
	cov := make([][]float64, d)
	for a := range cov {
		cov[a] = make([]float64, d)
		for b := range cov[a] {
			for _, x := range pts {
				cov[a][b] += (x[a] - mu[a]) * (x[b] - mu[b]) / n
			}
		}
	}
	return cov
}

func TestCovarianceMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 80, 4)
		s := MustNLQ(4, Triangular)
		for _, x := range pts {
			s.Update(x)
		}
		v, err := s.Covariance()
		if err != nil {
			return false
		}
		want := naiveCovariance(pts)
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if math.Abs(v.At(a, b)-want[a][b]) > 1e-6*math.Max(1, math.Abs(want[a][b])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 200, 5)
	s := MustNLQ(5, Triangular)
	for _, x := range pts {
		s.Update(x)
	}
	rho, err := s.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		if math.Abs(rho.At(a, a)-1) > 1e-9 {
			t.Fatalf("rho[%d][%d] = %g, want 1", a, a, rho.At(a, a))
		}
		for b := 0; b < 5; b++ {
			if v := rho.At(a, b); v < -1-1e-9 || v > 1+1e-9 {
				t.Fatalf("rho[%d][%d] = %g out of [-1,1]", a, b, v)
			}
			if math.Abs(rho.At(a, b)-rho.At(b, a)) > 1e-12 {
				t.Fatal("rho not symmetric")
			}
		}
	}
}

// TestCorrelationClampedNearCollinear drives Correlation with
// near-collinear dimensions at large offsets — the regime where
// cancellation in n·Qab − La·Lb historically pushed |ρ| a few ulps
// past 1 — and requires every entry to stay strictly inside [−1, 1]
// so √(1−ρ²) never yields NaN.
func TestCorrelationClampedNearCollinear(t *testing.T) {
	f := func(seed int64, offMag uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Big shared offset amplifies cancellation; the jitter keeps the
		// variance nonzero so the zero-variance guard does not kick in.
		off := math.Pow(10, 4+float64(offMag%5)) * (1 + rng.Float64())
		s := MustNLQ(3, Triangular)
		for i := 0; i < 300; i++ {
			v := off + rng.Float64()
			x := []float64{
				v,
				3*v + 7 + 1e-9*rng.Float64(), // almost exactly collinear with x0
				off * rng.Float64(),
			}
			if err := s.Update(x); err != nil {
				return false
			}
		}
		rho, err := s.Correlation()
		if err != nil {
			return false
		}
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				r := rho.At(a, b)
				if math.IsNaN(r) || r < -1 || r > 1 {
					return false
				}
				if math.IsNaN(math.Sqrt(1 - r*r)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationPerfectlyCorrelated(t *testing.T) {
	s := MustNLQ(2, Triangular)
	for i := 1; i <= 50; i++ {
		s.Update([]float64{float64(i), 3*float64(i) + 7}) // exact linear
	}
	rho, err := s.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho.At(0, 1)-1) > 1e-9 {
		t.Fatalf("rho = %g, want 1", rho.At(0, 1))
	}
	// Anti-correlated.
	s2 := MustNLQ(2, Triangular)
	for i := 1; i <= 50; i++ {
		s2.Update([]float64{float64(i), -2 * float64(i)})
	}
	rho2, _ := s2.Correlation()
	if math.Abs(rho2.At(0, 1)+1) > 1e-9 {
		t.Fatalf("rho = %g, want -1", rho2.At(0, 1))
	}
}

func TestCorrelationZeroVariance(t *testing.T) {
	s := MustNLQ(2, Triangular)
	for i := 0; i < 10; i++ {
		s.Update([]float64{5, float64(i)}) // first dim constant
	}
	rho, err := s.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if rho.At(0, 0) != 1 || rho.At(0, 1) != 0 {
		t.Fatalf("degenerate rho = %g, %g", rho.At(0, 0), rho.At(0, 1))
	}
}

func TestDeriveRequiresData(t *testing.T) {
	s := MustNLQ(2, Triangular)
	if _, err := s.Covariance(); err == nil {
		t.Fatal("empty covariance must fail")
	}
	if _, err := s.Correlation(); err == nil {
		t.Fatal("empty correlation must fail")
	}
	d := MustNLQ(2, Diagonal)
	d.Update([]float64{1, 2})
	d.Update([]float64{2, 3})
	if _, err := d.Covariance(); err == nil {
		t.Fatal("diagonal NLQ cannot produce full covariance")
	}
	if _, err := d.Variances(); err != nil {
		t.Fatal("diagonal NLQ must produce variances")
	}
}

func TestVariancesMatchCovarianceDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 60, 3)
	s := MustNLQ(3, Full)
	for _, x := range pts {
		s.Update(x)
	}
	v, _ := s.Covariance()
	vars, _ := s.Variances()
	for a := 0; a < 3; a++ {
		if math.Abs(v.At(a, a)-vars[a]) > 1e-9 {
			t.Fatalf("variance mismatch at %d: %g vs %g", a, v.At(a, a), vars[a])
		}
	}
}

func TestPlanBlocks(t *testing.T) {
	// d=128, block=64 → 2×2 block grid, lower triangle = 3 calls.
	p, err := PlanBlocks(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Calls() != 3 {
		t.Fatalf("calls = %d, want 3", p.Calls())
	}
	// The paper's Table 6 counts: d=64→1, 128→4... wait, the paper
	// reports full-grid counts (d/64)²: 128→4, 256→16, 512→64, 1024→256.
	// Our lower-triangle plan needs (b²+b)/2 calls; verify both scales.
	for _, c := range []struct{ d, want int }{
		{64, 1}, {128, 3}, {256, 10}, {512, 36}, {1024, 136},
	} {
		p, err := PlanBlocks(c.d, 64)
		if err != nil {
			t.Fatal(err)
		}
		if p.Calls() != c.want {
			t.Fatalf("d=%d: calls = %d, want %d", c.d, p.Calls(), c.want)
		}
	}
	if _, err := PlanBlocks(0, 64); err == nil {
		t.Fatal("d=0 must fail")
	}
}

func TestBlockedComputationMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, blockD = 10, 4
	pts := randPoints(rng, 40, d)
	scan := func(fn func(x []float64) error) error {
		for _, x := range pts {
			if err := fn(x); err != nil {
				return err
			}
		}
		return nil
	}
	plan, err := PlanBlocks(d, blockD)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*BlockResult, len(plan.Blocks))
	for i, blk := range plan.Blocks {
		r, err := ComputeBlock(blk, scan)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = r
	}
	got, err := plan.Assemble(parts)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNLQ(d, Full)
	for _, x := range pts {
		want.Update(x)
	}
	if got.N != want.N {
		t.Fatalf("n = %g, want %g", got.N, want.N)
	}
	for a := 0; a < d; a++ {
		if math.Abs(got.L[a]-want.L[a]) > 1e-9 {
			t.Fatalf("L[%d] mismatch", a)
		}
		if got.Min[a] != want.Min[a] || got.Max[a] != want.Max[a] {
			t.Fatalf("min/max[%d] mismatch", a)
		}
		for b := 0; b < d; b++ {
			if math.Abs(got.QAt(a, b)-want.QAt(a, b)) > 1e-9 {
				t.Fatalf("Q[%d][%d] = %g, want %g", a, b, got.QAt(a, b), want.QAt(a, b))
			}
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	plan, _ := PlanBlocks(8, 4)
	if _, err := plan.Assemble(nil); err == nil {
		t.Fatal("wrong part count must fail")
	}
	parts := make([]*BlockResult, plan.Calls())
	if _, err := plan.Assemble(parts); err == nil {
		t.Fatal("nil parts must fail")
	}
	for i, blk := range plan.Blocks {
		parts[i] = NewBlockResult(blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo)
	}
	if _, err := plan.Assemble(parts); err != nil {
		t.Fatal(err)
	}
	parts[0].Max = parts[0].Max[:1]
	if _, err := plan.Assemble(parts); err == nil {
		t.Fatal("a diagonal block with a short max must fail")
	}
	// A plan whose first block runs past d, with a result of that shape.
	wide := &BlockPlan{D: plan.D, BlockD: plan.BlockD, Blocks: append([]Block(nil), plan.Blocks...)}
	wide.Blocks[0].RowHi = plan.D + 1
	parts[0] = NewBlockResult(plan.D+1, plan.Blocks[0].ColHi)
	if _, err := wide.Assemble(parts); err == nil {
		t.Fatal("a block past d must fail")
	}
}

func TestComputeBlockShortPoint(t *testing.T) {
	blk := Block{RowLo: 0, RowHi: 4, ColLo: 0, ColHi: 4}
	scan := func(fn func(x []float64) error) error {
		return fn([]float64{1, 2}) // too short
	}
	if _, err := ComputeBlock(blk, scan); err == nil {
		t.Fatal("short point must fail")
	}
}
