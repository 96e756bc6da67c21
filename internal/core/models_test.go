package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// regressionData generates y = b0 + b·x + noise.
func regressionData(rng *rand.Rand, n, d int, b0 float64, b []float64, noise float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		z := make([]float64, d+1)
		y := b0
		for a := 0; a < d; a++ {
			z[a] = rng.NormFloat64() * 5
			y += b[a] * z[a]
		}
		z[d] = y + rng.NormFloat64()*noise
		pts[i] = z
	}
	return pts
}

func TestBuildCorrelationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 500)
	for i := range pts {
		x := rng.NormFloat64()
		// X2 strongly follows X1; X3 independent.
		pts[i] = []float64{x, 2*x + rng.NormFloat64()*0.1, rng.NormFloat64()}
	}
	s, err := ComputeNLQ(SliceSource(pts), Triangular)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCorrelation(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) < 0.95 {
		t.Fatalf("rho(X1,X2) = %g, want near 1", m.At(0, 1))
	}
	if math.Abs(m.At(0, 2)) > 0.2 {
		t.Fatalf("rho(X1,X3) = %g, want near 0", m.At(0, 2))
	}
	pairs := m.StrongestPairs(1)
	if len(pairs) != 1 || pairs[0].A != 0 || pairs[0].B != 1 {
		t.Fatalf("strongest = %v", pairs)
	}
	if pairs[0].String() == "" {
		t.Fatal("empty pair description")
	}
}

func TestBuildLinRegRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trueB := []float64{2, -1.5, 0.5}
	pts := regressionData(rng, 2000, 3, 10, trueB, 0.01)
	s, err := ComputeNLQ(SliceSource(pts), Triangular)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildLinReg(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta[0]-10) > 0.05 {
		t.Fatalf("intercept = %g, want 10", m.Beta[0])
	}
	for a, want := range trueB {
		if math.Abs(m.Beta[a+1]-want) > 0.05 {
			t.Fatalf("beta[%d] = %g, want %g", a+1, m.Beta[a+1], want)
		}
	}
	// Predict on a clean point.
	yhat, err := m.Predict([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 2*1 - 1.5*2 + 0.5*3
	if math.Abs(yhat-want) > 0.1 {
		t.Fatalf("yhat = %g, want %g", yhat, want)
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestLinRegFitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := regressionData(rng, 1000, 2, 5, []float64{1, 2}, 0.5)
	src := SliceSource(pts)
	s, _ := ComputeNLQ(src, Triangular)
	m, err := BuildLinReg(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasFit {
		t.Fatal("fit stats should not be present before the second pass")
	}
	if _, err := m.StdErrors(); err == nil {
		t.Fatal("StdErrors before FitStatistics must fail")
	}
	if err := m.FitStatistics(src, s); err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.97 {
		t.Fatalf("R² = %g, want near 1 for low-noise data", m.R2)
	}
	if m.SSE <= 0 {
		t.Fatalf("SSE = %g", m.SSE)
	}
	se, err := m.StdErrors()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range se {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("se[%d] = %g", i, v)
		}
	}
}

func TestLinRegDegenerate(t *testing.T) {
	// Collinear predictors: singular normal equations.
	pts := make([][]float64, 50)
	for i := range pts {
		x := float64(i)
		pts[i] = []float64{x, 2 * x, x} // X2 = 2·X1 exactly
	}
	s, _ := ComputeNLQ(SliceSource(pts), Triangular)
	if _, err := BuildLinReg(s); err == nil {
		t.Fatal("collinear regression must fail")
	}
	// Too few rows.
	s2, _ := ComputeNLQ(SliceSource{{1, 2, 3}, {4, 5, 6}}, Triangular)
	if _, err := BuildLinReg(s2); err == nil {
		t.Fatal("n <= d+1 must fail")
	}
	// Diagonal NLQ rejected.
	s3, _ := ComputeNLQ(SliceSource{{1, 2}, {2, 3}, {3, 5}, {4, 6}}, Diagonal)
	if _, err := BuildLinReg(s3); err == nil {
		t.Fatal("diagonal NLQ must be rejected")
	}
}

func TestBuildPCA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Data with a dominant direction: X2 ≈ X1, X3 small noise.
	pts := make([][]float64, 1000)
	for i := range pts {
		x := rng.NormFloat64() * 10
		pts[i] = []float64{x, x + rng.NormFloat64(), rng.NormFloat64() * 0.5}
	}
	s, _ := ComputeNLQ(SliceSource(pts), Triangular)
	for _, basis := range []PCABasis{CorrelationBasis, CovarianceBasis} {
		m, err := BuildPCA(s, 2, basis)
		if err != nil {
			t.Fatal(err)
		}
		// Orthogonality ΛᵀΛ = I (paper property).
		if got := m.Lambda.Transpose().Mul(m.Lambda); got.MaxAbsDiff(matrix.Identity(2)) > 1e-8 {
			t.Fatalf("basis %v: ΛᵀΛ != I", basis)
		}
		if m.Eigen[0] < m.Eigen[1] {
			t.Fatalf("eigenvalues not descending: %v", m.Eigen)
		}
		if ev := m.ExplainedVariance(); ev < 0.8 || ev > 1+1e-9 {
			t.Fatalf("basis %v: explained variance = %g", basis, ev)
		}
		// Scoring: a point projects to k dims.
		score, err := m.Score(pts[0])
		if err != nil || len(score) != 2 {
			t.Fatalf("score = %v, %v", score, err)
		}
		if _, err := m.Score([]float64{1}); err == nil {
			t.Fatal("dimension mismatch must fail")
		}
		if len(m.Component(0)) != 3 {
			t.Fatal("component length")
		}
	}
}

func TestPCAScoreCentersAtMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 300, 4)
	s, _ := ComputeNLQ(SliceSource(pts), Triangular)
	m, err := BuildPCA(s, 2, CovarianceBasis)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := s.Mean()
	score, err := m.Score(mu)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range score {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("score of mean = %v, want 0", score)
		}
	}
}

func TestPCAValidation(t *testing.T) {
	s, _ := ComputeNLQ(SliceSource{{1, 2}, {3, 4}, {5, 7}}, Triangular)
	if _, err := BuildPCA(s, 0, CorrelationBasis); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := BuildPCA(s, 3, CorrelationBasis); err == nil {
		t.Fatal("k>d must fail")
	}
	if _, err := BuildPCA(s, 1, PCABasis(99)); err == nil {
		t.Fatal("bad basis must fail")
	}
}

// One NaN cell — a CSV field "NaN" parses as one — poisons n, L and Q;
// the models that eigendecompose them report it instead of returning
// NaN components.
func TestEigenModelsRejectNaNSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randPoints(rng, 50, 4)
	pts[20][2] = math.NaN()
	s, _ := ComputeNLQ(SliceSource(pts), Triangular)
	for _, basis := range []PCABasis{CorrelationBasis, CovarianceBasis} {
		if m, err := BuildPCA(s, 2, basis); !errors.Is(err, matrix.ErrNotFinite) {
			t.Fatalf("PCA basis %v: err %v, want ErrNotFinite (model %+v)", basis, err, m)
		}
	}
	if m, err := BuildFactorAnalysis(s, 2, FactorOptions{}); !errors.Is(err, matrix.ErrNotFinite) {
		t.Fatalf("factor analysis: err %v, want ErrNotFinite (model %+v)", err, m)
	}
}

func TestBuildFactorAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Two-factor generative model in 5 dims.
	load := [][]float64{{1, 0}, {0.8, 0.2}, {0, 1}, {0.1, 0.9}, {0.5, 0.5}}
	pts := make([][]float64, 2000)
	for i := range pts {
		z1, z2 := rng.NormFloat64(), rng.NormFloat64()
		x := make([]float64, 5)
		for a := 0; a < 5; a++ {
			x[a] = load[a][0]*z1 + load[a][1]*z2 + rng.NormFloat64()*0.1
		}
		pts[i] = x
	}
	s, _ := ComputeNLQ(SliceSource(pts), Triangular)
	m, err := BuildFactorAnalysis(s, 2, FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged && m.Iters < 200 {
		t.Fatalf("EM stopped early without converging: %d iters", m.Iters)
	}
	// The implied covariance must approximate the sample covariance.
	v, _ := s.Covariance()
	if diff := m.ImpliedCovariance().MaxAbsDiff(v); diff > 0.1 {
		t.Fatalf("implied covariance off by %g", diff)
	}
	for _, p := range m.Psi {
		if p <= 0 {
			t.Fatalf("psi must be positive: %v", m.Psi)
		}
	}
	score, err := m.Score(pts[0])
	if err != nil || len(score) != 2 {
		t.Fatalf("factor score = %v, %v", score, err)
	}
	if _, err := m.Score([]float64{1}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestFactorAnalysisValidation(t *testing.T) {
	s, _ := ComputeNLQ(SliceSource{{1, 2}, {3, 4}, {5, 7}}, Triangular)
	if _, err := BuildFactorAnalysis(s, 2, FactorOptions{}); err == nil {
		t.Fatal("k >= d must fail")
	}
}

// clusteredData draws points from g well-separated Gaussians.
func clusteredData(rng *rand.Rand, n, d, g int) ([][]float64, [][]float64) {
	centers := make([][]float64, g)
	for j := range centers {
		c := make([]float64, d)
		for a := range c {
			c[a] = float64(j*40) + rng.Float64()*5
		}
		centers[j] = c
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[i%g]
		x := make([]float64, d)
		for a := range x {
			x[a] = c[a] + rng.NormFloat64()
		}
		pts[i] = x
	}
	return pts, centers
}

func TestBuildKMeansRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts, centers := clusteredData(rng, 600, 3, 3)
	m, err := BuildKMeans(SliceSource(pts), 3, KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 3 || m.N != 600 {
		t.Fatalf("k=%d n=%g", m.K, m.N)
	}
	// Weights sum to 1 and are near 1/3 each.
	var wsum float64
	for _, w := range m.W {
		wsum += w
		if w < 0.2 || w > 0.5 {
			t.Fatalf("weights unbalanced: %v", m.W)
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", wsum)
	}
	// Every true center must be close to some centroid.
	for _, c := range centers {
		j, dist := m.Closest(c)
		if dist > 25 {
			t.Fatalf("center %v is %g away from centroid %d (%v)", c, dist, j, m.C[j])
		}
	}
	// Radii are nonnegative and small relative to cluster separation.
	for j, r := range m.R {
		for a, v := range r {
			if v < 0 || v > 100 {
				t.Fatalf("R[%d][%d] = %g", j, a, v)
			}
		}
	}
	if m.SSE <= 0 {
		t.Fatalf("SSE = %g", m.SSE)
	}
}

func TestKMeansIncrementalOneScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts, _ := clusteredData(rng, 400, 2, 2)
	m, err := BuildKMeans(SliceSource(pts), 2, KMeansOptions{Seed: 3, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters != 1 {
		t.Fatalf("incremental variant must use one scan, used %d", m.Iters)
	}
	// Solution should still separate the two blobs reasonably.
	full, err := BuildKMeans(SliceSource(pts), 2, KMeansOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.SSE > 5*full.SSE+1 {
		t.Fatalf("incremental SSE %g too far above converged SSE %g", m.SSE, full.SSE)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := BuildKMeans(SliceSource{}, 2, KMeansOptions{}); err == nil {
		t.Fatal("empty source must fail")
	}
	if _, err := BuildKMeans(SliceSource{{1}}, 0, KMeansOptions{}); err == nil {
		t.Fatal("k=0 must fail")
	}
	// k > n still works (duplicated seeds with nudges).
	m, err := BuildKMeans(SliceSource{{1, 1}, {2, 2}}, 4, KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 4 {
		t.Fatalf("k = %d", m.K)
	}
}

func TestBuildEM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts, centers := clusteredData(rng, 600, 2, 2)
	m, err := BuildEM(SliceSource(pts), 2, EMOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wsum float64
	for _, w := range m.W {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-6 {
		t.Fatalf("weights sum to %g", wsum)
	}
	for _, c := range centers {
		bestDist := math.Inf(1)
		for _, mc := range m.C {
			if d := matrix.SquaredDistance(c, mc); d < bestDist {
				bestDist = d
			}
		}
		if bestDist > 25 {
			t.Fatalf("EM missed center %v (best dist %g)", c, bestDist)
		}
	}
	// Posterior scoring is confident for a point at a center.
	j, p := m.Score(centers[0])
	if p < 0.9 {
		t.Fatalf("posterior at center = %g (component %d)", p, j)
	}
	// Log-likelihood improved monotonically enough to converge.
	if !m.Converged && m.Iters >= 50 {
		t.Log("EM hit max iterations; acceptable but unusual for separated blobs")
	}
}

func TestEMValidation(t *testing.T) {
	if _, err := BuildEM(SliceSource{}, 2, EMOptions{}); err == nil {
		t.Fatal("empty source must fail")
	}
	if _, err := BuildEM(SliceSource{{1}}, 0, EMOptions{}); err == nil {
		t.Fatal("k=0 must fail")
	}
}
