package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// PCABasis selects the matrix PCA decomposes: the correlation matrix
// (dimensions rescaled to unit variance) or the covariance matrix
// (original scales) — the two options §3.1 of the paper describes.
type PCABasis int

const (
	// CorrelationBasis decomposes ρ.
	CorrelationBasis PCABasis = iota
	// CovarianceBasis decomposes V.
	CovarianceBasis
)

// PCAModel is the d×k dimensionality reduction Λ with the component
// eigenvalues, the data mean µ (used to center points when scoring)
// and, for the correlation basis, the per-dimension standard
// deviations (used to rescale).
type PCAModel struct {
	D, K   int
	Basis  PCABasis
	Lambda *matrix.Dense // d×k, orthonormal columns
	Eigen  []float64     // k eigenvalues, descending
	Total  float64       // trace of the decomposed matrix
	Mu     []float64
	Sd     []float64 // unit scaling for CorrelationBasis; nil otherwise
}

// BuildPCA computes the top-k principal components from the summary
// matrices: the correlation or covariance matrix is derived from n, L,
// Q and eigendecomposed by matrix.SymEigen (Householder
// tridiagonalisation + implicit QL) — the SVD step that runs "outside
// the DBMS" in seconds because the input is only d×d. Summaries holding
// a NaN or an infinity fail with matrix.ErrNotFinite.
func BuildPCA(s *NLQ, k int, basis PCABasis) (*PCAModel, error) {
	if k < 1 || k > s.D {
		return nil, fmt.Errorf("core: k=%d out of range 1..%d", k, s.D)
	}
	if s.N < 2 {
		return nil, errors.New("core: PCA requires n ≥ 2")
	}
	var target *matrix.Dense
	var err error
	m := &PCAModel{D: s.D, K: k, Basis: basis}
	if m.Mu, err = s.Mean(); err != nil {
		return nil, err
	}
	switch basis {
	case CorrelationBasis:
		target, err = s.Correlation()
		if err != nil {
			return nil, err
		}
		vars, err := s.Variances()
		if err != nil {
			return nil, err
		}
		m.Sd = make([]float64, s.D)
		for i, v := range vars {
			m.Sd[i] = sqrtOr1(v)
		}
	case CovarianceBasis:
		target, err = s.Covariance()
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown PCA basis %d", basis)
	}
	eig, err := matrix.SymEigen(target)
	if err != nil {
		return nil, err
	}
	m.Lambda, m.Eigen = eig.TopComponents(k)
	for _, v := range eig.Values {
		m.Total += v
	}
	return m, nil
}

// Score reduces one point: x′ = Λᵀ·(x−µ), with unit-variance scaling
// first under the correlation basis. The result has k dimensions.
func (m *PCAModel) Score(x []float64) ([]float64, error) {
	if len(x) != m.D {
		return nil, fmt.Errorf("core: point has %d dims, model expects %d", len(x), m.D)
	}
	centered := make([]float64, m.D)
	for i, v := range x {
		c := v - m.Mu[i]
		if m.Sd != nil {
			c /= m.Sd[i]
		}
		centered[i] = c
	}
	out := make([]float64, m.K)
	for j := 0; j < m.K; j++ {
		var s float64
		for i := 0; i < m.D; i++ {
			s += m.Lambda.At(i, j) * centered[i]
		}
		out[j] = s
	}
	return out, nil
}

// ExplainedVariance returns the fraction of total variance captured by
// the k retained components.
func (m *PCAModel) ExplainedVariance() float64 {
	if m.Total <= 0 {
		return 0
	}
	var s float64
	for _, v := range m.Eigen {
		if v > 0 {
			s += v
		}
	}
	return s / m.Total
}

// Component returns the j-th component vector Λⱼ (length d).
func (m *PCAModel) Component(j int) []float64 {
	return m.Lambda.Col(j)
}

// sqrtOr1 guards zero-variance dimensions: scaling by 1 leaves the
// (constant) dimension centered at zero rather than dividing by zero.
func sqrtOr1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return math.Sqrt(v)
}
