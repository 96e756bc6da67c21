package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// KMeansModel is the clustering model of §3.1/§3.2: centroids C (d×k),
// per-cluster diagonal radius (variance) matrices R, and weights W.
// Each iteration accumulates one diagonal NLQ per cluster, so
//
//	Cⱼ = Lⱼ/Nⱼ,  Rⱼ = Qⱼ/Nⱼ − Lⱼ·Lⱼᵀ/Nⱼ² (diagonal),  Wⱼ = Nⱼ/n —
//
// the same summary-matrix equations as every other model.
type KMeansModel struct {
	D, K      int
	N         float64
	C         [][]float64 // k centroids of d dims
	R         [][]float64 // k diagonal variances
	W         []float64   // k weights, sum to 1
	SSE       float64     // total within-cluster squared distance
	Iters     int
	Converged bool
}

// KMeansOptions tune the fit.
type KMeansOptions struct {
	MaxIters int     // default 20; the paper discusses one iteration of the incremental variant
	Tol      float64 // relative SSE improvement to continue; default 1e-4
	Seed     int64   // deterministic centroid seeding
	// Incremental, when true, performs the paper's single-scan variant:
	// centroids update online during the one pass instead of per-scan.
	Incremental bool
	// InitialCentroids, when non-nil, bypasses the seeding scan: the
	// k×d centroids are the starting solution. The summary cache derives
	// them from n, L, Q with SeedCentroidsFromSummary, so clustering
	// starts without an extra pass over X.
	InitialCentroids [][]float64
}

// BuildKMeans clusters the source into k partitions. The standard
// variant scans X once per iteration, as the paper notes; the
// incremental variant obtains a "good, but probably suboptimal,
// solution" in a single scan.
func BuildKMeans(src Source, k int, opts KMeansOptions) (*KMeansModel, error) {
	d := src.Dims()
	if d < 1 {
		return nil, errors.New("core: empty source")
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k=%d out of range", k)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 20
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-4
	}

	var centroids [][]float64
	if opts.InitialCentroids != nil {
		if len(opts.InitialCentroids) != k {
			return nil, fmt.Errorf("core: %d initial centroids, want k=%d", len(opts.InitialCentroids), k)
		}
		centroids = make([][]float64, k)
		for j, c := range opts.InitialCentroids {
			if len(c) != d {
				return nil, fmt.Errorf("core: initial centroid %d has d=%d, want %d", j, len(c), d)
			}
			centroids[j] = append([]float64(nil), c...)
		}
	} else {
		var err error
		centroids, err = seedCentroids(src, k, opts.Seed)
		if err != nil {
			return nil, err
		}
	}
	m := &KMeansModel{D: d, K: k, C: centroids}

	if opts.Incremental {
		return m.incrementalPass(src)
	}

	prevSSE := math.Inf(1)
	for iter := 0; iter < opts.MaxIters; iter++ {
		sums, err := newClusterSums(d, k)
		if err != nil {
			return nil, err
		}
		var sse float64
		err = src.Scan(func(x []float64) error {
			j, dist := m.Closest(x)
			sse += dist
			return sums[j].Update(x)
		})
		if err != nil {
			return nil, err
		}
		if err := m.updateFromSums(sums); err != nil {
			return nil, err
		}
		m.SSE = sse
		m.Iters = iter + 1
		if !math.IsInf(prevSSE, 1) && prevSSE-sse <= opts.Tol*math.Max(prevSSE, 1) {
			m.Converged = true
			break
		}
		prevSSE = sse
	}
	return m, nil
}

// newClusterSums returns k empty diagonal accumulators, one per
// cluster.
func newClusterSums(d, k int) ([]*NLQ, error) {
	sums := make([]*NLQ, k)
	for j := range sums {
		var err error
		if sums[j], err = NewNLQ(d, Diagonal); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// incrementalPass is the one-scan variant: each point updates its
// nearest centroid's running sums immediately, and the centroid moves
// to the running mean.
func (m *KMeansModel) incrementalPass(src Source) (*KMeansModel, error) {
	d, k := m.D, m.K
	sums, err := newClusterSums(d, k)
	if err != nil {
		return nil, err
	}
	var sse float64
	err = src.Scan(func(x []float64) error {
		j, dist := m.Closest(x)
		sse += dist
		if err := sums[j].Update(x); err != nil {
			return err
		}
		// Online centroid drift toward the running mean.
		nj := sums[j].N
		for a := 0; a < d; a++ {
			m.C[j][a] = sums[j].L[a] / nj
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := m.updateFromSums(sums); err != nil {
		return nil, err
	}
	m.SSE = sse
	m.Iters = 1
	return m, nil
}

// updateFromSums recomputes C, R, W from the per-cluster summaries —
// exactly the paper's Cⱼ = Lⱼ/Nⱼ, Rⱼ = Qⱼ/Nⱼ − LⱼLⱼᵀ/Nⱼ², Wⱼ = Nⱼ/n.
func (m *KMeansModel) updateFromSums(sums []*NLQ) error {
	var n float64
	for _, s := range sums {
		n += s.N
	}
	if n == 0 {
		return errors.New("core: no points assigned to any cluster")
	}
	m.N = n
	m.R = make([][]float64, m.K)
	m.W = make([]float64, m.K)
	for j, s := range sums {
		m.W[j] = s.N / n
		m.R[j] = make([]float64, m.D)
		if s.N == 0 {
			continue // empty cluster keeps its previous centroid
		}
		for a := 0; a < m.D; a++ {
			m.C[j][a] = s.L[a] / s.N
		}
		vars, err := s.Variances()
		if err != nil {
			return err
		}
		m.R[j] = vars
	}
	return nil
}

// SeedCentroids exposes the deterministic farthest-point seeding for
// callers that drive the clustering loop themselves (e.g. the
// in-engine K-means, whose iterations run as SQL).
func SeedCentroids(src Source, k int, seed int64) ([][]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k=%d out of range", k)
	}
	return seedCentroids(src, k, seed)
}

// SeedCentroidsFromSummary places k starting centroids from the
// summaries alone — zero-scan K-means initialisation for the summary
// cache. Centroid j sits at µ + t·σ per dimension with t spread
// uniformly over [−1, 1], clipped to the observed [min, max] envelope,
// so the seeds span the data's bulk without touching X. Any NLQ type
// works; the diagonal of Q is all that is read.
func SeedCentroidsFromSummary(s *NLQ, k int) ([][]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k=%d out of range", k)
	}
	if s == nil || s.N < 1 {
		return nil, errors.New("core: empty summary cannot seed centroids")
	}
	mu, err := s.Mean()
	if err != nil {
		return nil, err
	}
	vars, err := s.Variances()
	if err != nil {
		return nil, err
	}
	cents := make([][]float64, k)
	for j := range cents {
		t := 0.0
		if k > 1 {
			t = 2*float64(j)/float64(k-1) - 1
		}
		c := make([]float64, s.D)
		for a := 0; a < s.D; a++ {
			c[a] = mu[a] + t*math.Sqrt(vars[a])
			if s.Min[a] <= s.Max[a] { // envelope is meaningful once n ≥ 1
				c[a] = math.Max(s.Min[a], math.Min(s.Max[a], c[a]))
			}
		}
		cents[j] = c
	}
	return cents, nil
}

// FinalizeKMeans builds a model from per-cluster summaries, the
// paper's Cⱼ = Lⱼ/Nⱼ, Rⱼ = Qⱼ/Nⱼ − LⱼLⱼᵀ/Nⱼ², Wⱼ = Nⱼ/n step.
// Clusters with no summary (empty assignment) keep the centroid given
// in cents.
func FinalizeKMeans(cents [][]float64, sums []*NLQ) (*KMeansModel, error) {
	if len(cents) == 0 || len(cents) != len(sums) {
		return nil, fmt.Errorf("core: %d centroids vs %d summaries", len(cents), len(sums))
	}
	d := len(cents[0])
	m := &KMeansModel{D: d, K: len(cents), C: make([][]float64, len(cents))}
	for j, c := range cents {
		m.C[j] = append([]float64(nil), c...)
	}
	filled := make([]*NLQ, len(sums))
	for j, s := range sums {
		if s == nil {
			var err error
			if s, err = NewNLQ(d, Diagonal); err != nil {
				return nil, err
			}
		}
		if s.D != d {
			return nil, fmt.Errorf("core: summary %d has d=%d, want %d", j, s.D, d)
		}
		filled[j] = s
	}
	if err := m.updateFromSums(filled); err != nil {
		return nil, err
	}
	return m, nil
}

// Closest returns the index of the nearest centroid under Euclidean
// distance and the squared distance to it — the scoring computation
// the paper's distance/clusterscore UDF pair performs.
func (m *KMeansModel) Closest(x []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for j, c := range m.C {
		d := matrix.SquaredDistance(x, c)
		if d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

// seedSampleSize bounds the in-memory sample used to seed centroids.
const seedSampleSize = 4096

// seedCentroids picks k starting centroids deterministically with
// farthest-point (k-means++ style greedy) seeding over a bounded
// sample: the first centroid is chosen by the seed, each subsequent
// one is the sample point farthest from its nearest centroid. This is
// deterministic, needs one scan, and avoids the degenerate starts that
// strand K-means in poor local optima.
func seedCentroids(src Source, k int, seed int64) ([][]float64, error) {
	// One scan collects an evenly thinned sample: keep every point
	// until the buffer fills, then keep every 2nd, 4th, ... so the
	// sample always spans the whole stream.
	var sample [][]float64
	stride, i := 1, 0
	err := src.Scan(func(x []float64) error {
		if i%stride == 0 {
			sample = append(sample, append([]float64(nil), x...))
			if len(sample) > seedSampleSize {
				// Halve the sample, double the stride.
				kept := sample[:0]
				for idx := 0; idx < len(sample); idx += 2 {
					kept = append(kept, sample[idx])
				}
				sample = kept
				stride *= 2
			}
		}
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, errors.New("core: cannot seed centroids from an empty source")
	}

	cents := make([][]float64, 0, k)
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	first := int(state % uint64(len(sample)))
	cents = append(cents, append([]float64(nil), sample[first]...))

	nearest := make([]float64, len(sample))
	for idx, x := range sample {
		nearest[idx] = matrix.SquaredDistance(x, cents[0])
	}
	for len(cents) < k {
		// Farthest sample point from its nearest centroid.
		best, bestD := 0, -1.0
		for idx, d := range nearest {
			if d > bestD {
				best, bestD = idx, d
			}
		}
		next := append([]float64(nil), sample[best]...)
		if bestD == 0 {
			// All sample points coincide with centroids (k > distinct
			// points); nudge deterministically to keep centroids apart.
			for a := range next {
				next[a] += float64(len(cents)) * 1e-3
			}
		}
		cents = append(cents, next)
		for idx, x := range sample {
			if d := matrix.SquaredDistance(x, next); d < nearest[idx] {
				nearest[idx] = d
			}
		}
	}
	return cents, nil
}
