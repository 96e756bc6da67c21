package core

import (
	"errors"
	"fmt"
	"math"
)

// EMModel is a mixture of k Gaussians with diagonal covariance — the
// EM clustering the paper groups with K-means ("K-means and EM are
// based on distance computation", §3.2). Per-cluster sufficient
// statistics are again n, L, Q restricted to the diagonal; the E step
// merely weights each point's contribution.
type EMModel struct {
	D, K      int
	N         float64
	C         [][]float64 // component means
	R         [][]float64 // component diagonal variances
	W         []float64   // mixing weights
	LogLik    float64     // total data log-likelihood
	Iters     int
	Converged bool
}

// EMOptions tune the fit.
type EMOptions struct {
	MaxIters int     // default 50
	Tol      float64 // absolute log-likelihood improvement; default 1e-3
	Seed     int64
	MinVar   float64 // variance floor; default 1e-6
}

// BuildEM fits the mixture by expectation-maximization, scanning the
// source once per iteration. Initialization reuses the K-means seeding.
func BuildEM(src Source, k int, opts EMOptions) (*EMModel, error) {
	d := src.Dims()
	if d < 1 {
		return nil, errors.New("core: empty source")
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k=%d out of range", k)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 50
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-3
	}
	if opts.MinVar <= 0 {
		opts.MinVar = 1e-6
	}

	cents, err := seedCentroids(src, k, opts.Seed)
	if err != nil {
		return nil, err
	}
	// Initial spherical variances from global spread.
	global, err := NewNLQ(d, Diagonal)
	if err != nil {
		return nil, err
	}
	if err := src.Scan(global.Update); err != nil {
		return nil, err
	}
	gvars, err := global.Variances()
	if err != nil {
		return nil, err
	}
	m := &EMModel{D: d, K: k, N: global.N, C: cents}
	m.R = make([][]float64, k)
	m.W = make([]float64, k)
	for j := 0; j < k; j++ {
		m.R[j] = make([]float64, d)
		for a := 0; a < d; a++ {
			m.R[j][a] = math.Max(gvars[a], opts.MinVar)
		}
		m.W[j] = 1 / float64(k)
	}

	prevLL := math.Inf(-1)
	resp := make([]float64, k)
	for iter := 0; iter < opts.MaxIters; iter++ {
		// Weighted diagonal summaries per component: the E step turns
		// each point into fractional contributions; the M step is the
		// usual L/N, Q/N − (L/N)² on those weighted sums.
		wN := make([]float64, k)
		wL := make([][]float64, k)
		wQ := make([][]float64, k)
		for j := 0; j < k; j++ {
			wL[j] = make([]float64, d)
			wQ[j] = make([]float64, d)
		}
		var ll float64
		err := src.Scan(func(x []float64) error {
			ll += m.responsibilities(x, resp)
			for j := 0; j < k; j++ {
				r := resp[j]
				if r == 0 {
					continue
				}
				wN[j] += r
				for a, v := range x {
					wL[j][a] += r * v
					wQ[j][a] += r * v * v
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			if wN[j] < 1e-12 {
				continue // dying component keeps parameters
			}
			m.W[j] = wN[j] / m.N
			for a := 0; a < d; a++ {
				mean := wL[j][a] / wN[j]
				m.C[j][a] = mean
				m.R[j][a] = math.Max(wQ[j][a]/wN[j]-mean*mean, opts.MinVar)
			}
		}
		m.LogLik = ll
		m.Iters = iter + 1
		if ll-prevLL < opts.Tol && iter > 0 {
			m.Converged = true
			break
		}
		prevLL = ll
	}
	return m, nil
}

// responsibilities fills resp with p(j|x) and returns log p(x).
func (m *EMModel) responsibilities(x []float64, resp []float64) float64 {
	// Work in log space for stability.
	maxLog := math.Inf(-1)
	for j := 0; j < m.K; j++ {
		resp[j] = math.Log(math.Max(m.W[j], 1e-300)) + m.logGauss(x, j)
		if resp[j] > maxLog {
			maxLog = resp[j]
		}
	}
	var sum float64
	for j := 0; j < m.K; j++ {
		resp[j] = math.Exp(resp[j] - maxLog)
		sum += resp[j]
	}
	for j := 0; j < m.K; j++ {
		resp[j] /= sum
	}
	return maxLog + math.Log(sum)
}

// logGauss is the log density of the diagonal Gaussian component j.
func (m *EMModel) logGauss(x []float64, j int) float64 {
	const log2pi = 1.8378770664093453
	var s float64
	for a, v := range x {
		diff := v - m.C[j][a]
		s += diff*diff/m.R[j][a] + math.Log(m.R[j][a]) + log2pi
	}
	return -0.5 * s
}

// Score returns the most probable component for a point along with the
// posterior probability.
func (m *EMModel) Score(x []float64) (int, float64) {
	resp := make([]float64, m.K)
	m.responsibilities(x, resp)
	best := 0
	for j := 1; j < m.K; j++ {
		if resp[j] > resp[best] {
			best = j
		}
	}
	return best, resp[best]
}
