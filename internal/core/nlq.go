// Package core implements the paper's central contribution: the
// sufficient-statistic summary matrices n, L, Q computed in a single
// scan of the data set, and the four linear statistical models —
// correlation, linear regression, PCA/factor analysis and K-means
// clustering — built from them.
//
// L = Σ xᵢ is the linear sum of points (d×1) and Q = X·Xᵀ = Σ xᵢxᵢᵀ is
// the quadratic sum of cross-products (d×d). For d << n they are far
// smaller than X yet sufficient to derive the correlation matrix ρ, the
// covariance matrix V = Q/n − L·Lᵀ/n², the regression normal equations
// and per-cluster centroids/radii — so the data set is scanned once and
// the model math runs on d×d matrices.
package core

import (
	"errors"
	"fmt"
	"math"
)

// MatrixType selects how much of Q an NLQ maintains, the paper's
// diagonal/triangular/full optimization (§3.4): clustering needs only
// the diagonal, correlation/PCA/regression the lower triangle, and
// querying/visualization the full matrix.
type MatrixType int

const (
	// Triangular maintains the lower triangle (d(d+1)/2 operations per
	// point). It is the zero value and the default, since Q is
	// symmetric — matching the paper's default.
	Triangular MatrixType = iota
	// Diagonal maintains only Qaa (d operations per point).
	Diagonal
	// Full maintains all d² entries.
	Full
)

// String returns the paper's name for the matrix type.
func (m MatrixType) String() string {
	switch m {
	case Diagonal:
		return "diag"
	case Triangular:
		return "triang"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("MatrixType(%d)", int(m))
	}
}

// ParseMatrixType converts the SQL-level parameter string.
func ParseMatrixType(s string) (MatrixType, error) {
	switch s {
	case "diag", "diagonal":
		return Diagonal, nil
	case "triang", "triangular":
		return Triangular, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("core: unknown matrix type %q", s)
	}
}

// MaxD is the largest dimensionality a single NLQ state supports,
// derived from the 64 KB UDF heap segment exactly as in the paper
// (the Q matrix dominates: 64×64×8 = 32 KB). Higher-dimensional
// problems are computed block-wise (Table 6); see BlockPlan.
const MaxD = 64

// NLQ accumulates n, L, Q (and per-dimension min/max, which the
// paper's UDF also tracks) over a stream of d-dimensional points.
//
// The zero value is not usable; construct with NewNLQ. Q is stored
// row-major; for Triangular only entries with col ≤ row are maintained
// and At symmetrizes on read.
type NLQ struct {
	D    int
	Type MatrixType
	N    float64
	L    []float64
	Q    []float64 // d×d row-major
	Min  []float64
	Max  []float64
}

// NewNLQ returns an empty accumulator for d dimensions.
func NewNLQ(d int, mt MatrixType) (*NLQ, error) {
	if d < 1 {
		return nil, fmt.Errorf("core: dimensionality %d out of range", d)
	}
	s := &NLQ{
		D:    d,
		Type: mt,
		L:    make([]float64, d),
		Q:    make([]float64, d*d),
		Min:  make([]float64, d),
		Max:  make([]float64, d),
	}
	for i := range s.Min {
		s.Min[i] = math.Inf(1)
		s.Max[i] = math.Inf(-1)
	}
	return s, nil
}

// MustNLQ is NewNLQ that panics; for callers with validated d.
func MustNLQ(d int, mt MatrixType) *NLQ {
	s, err := NewNLQ(d, mt)
	if err != nil {
		panic(err)
	}
	return s
}

// Update folds one point into the summaries (the UDF's phase-2 row
// aggregation): n ← n+1, L ← L+x, Q ← Q+x·xᵀ restricted to Type.
func (s *NLQ) Update(x []float64) error {
	if len(x) != s.D {
		return fmt.Errorf("core: point has %d dimensions, want %d", len(x), s.D)
	}
	s.N++
	l, mn, mx := s.L[:len(x)], s.Min[:len(x)], s.Max[:len(x)]
	for a, v := range x {
		l[a] += v
		if v < mn[a] {
			mn[a] = v
		}
		if v > mx[a] {
			mx[a] = v
		}
	}
	switch s.Type {
	case Diagonal:
		for a, v := range x {
			s.Q[a*s.D+a] += v * v
		}
	case Triangular:
		addOuterLower(s.Q, x)
	case Full:
		AddOuter(s.Q, x, x)
	}
	return nil
}

// The Q ← Q + x·xᵀ kernels below are register-tiled: four accumulator
// rows advance together, so each x[b] is loaded once for four
// multiply-adds instead of once per multiply-add. Tiling only reorders
// *which slot* is touched next; every slot still receives exactly one
// `+= x[a]*x[b]` per point (a separate multiply and add, never fused),
// so the result is bitwise what the plain double loop produces and the
// row == columnar == cluster identity is untouched. The reslicing to a
// common length is what lets the compiler drop the bounds checks.

// addRows4 adds x0·xs … x3·xs into four rows at least as long as xs.
func addRows4(r0, r1, r2, r3, xs []float64, x0, x1, x2, x3 float64) {
	r0, r1, r2, r3 = r0[:len(xs)], r1[:len(xs)], r2[:len(xs)], r3[:len(xs)]
	for b, xb := range xs {
		r0[b] += x0 * xb
		r1[b] += x1 * xb
		r2[b] += x2 * xb
		r3[b] += x3 * xb
	}
}

// AddOuter adds the outer product xr·xcᵀ into q, a len(xr)×len(xc)
// row-major matrix: the Full update (xr = xc = x) and the rectangular
// block update of the blocked high-d strategy.
func AddOuter(q, xr, xc []float64) {
	w := len(xc)
	q = q[:len(xr)*w]
	a := 0
	for ; a+4 <= len(xr); a += 4 {
		t := q[a*w : (a+4)*w]
		addRows4(t[:w], t[w:2*w], t[2*w:3*w], t[3*w:], xc, xr[a], xr[a+1], xr[a+2], xr[a+3])
	}
	for ; a < len(xr); a++ {
		va, row := xr[a], q[a*w:(a+1)*w]
		for b, xb := range xc {
			row[b] += va * xb
		}
	}
}

// addOuterLower adds the lower triangle (col ≤ row) of x·xᵀ into the
// d×d row-major q. A tile of four rows a..a+3 shares columns 0..a-1;
// the 4×4 block on the diagonal contributes its own lower triangle,
// written out explicitly.
func addOuterLower(q, x []float64) {
	d := len(x)
	q = q[:d*d]
	a := 0
	for ; a+4 <= d; a += 4 {
		x0, x1, x2, x3 := x[a], x[a+1], x[a+2], x[a+3]
		r0, r1, r2, r3 := q[a*d:], q[(a+1)*d:], q[(a+2)*d:], q[(a+3)*d:]
		addRows4(r0, r1, r2, r3, x[:a], x0, x1, x2, x3)
		t0, t1, t2, t3 := r0[a:a+1], r1[a:a+2], r2[a:a+3], r3[a:a+4]
		t0[0] += x0 * x0
		t1[0] += x1 * x0
		t1[1] += x1 * x1
		t2[0] += x2 * x0
		t2[1] += x2 * x1
		t2[2] += x2 * x2
		t3[0] += x3 * x0
		t3[1] += x3 * x1
		t3[2] += x3 * x2
		t3[3] += x3 * x3
	}
	for ; a < d; a++ {
		va, row := x[a], q[a*d:a*d+a+1]
		for b, xb := range x[:a+1] {
			row[b] += va * xb
		}
	}
}

// UpdateBlock folds a column-wise batch of points into the summaries:
// cols[a][r] is row r's value for dimension a, and valid[r] gates the
// row (rows with a NULL or non-numeric value in any dimension arrive
// masked out, exactly the rows the row-at-a-time scan skips).
//
// The kernel loops column-major — one accumulator slot at a time over
// the whole block — which is both the cache-friendly layout for the
// d(d+1)/2 quadratic products and *bit-identical* to calling Update
// once per valid row in order: float addition is applied to each slot
// in the same row order either way, so partials computed block-wise
// merge byte-for-byte with partials computed row-wise. The cluster
// coordinator's push-down algebra relies on this.
func (s *NLQ) UpdateBlock(cols [][]float64, valid []bool) error {
	if len(cols) != s.D {
		return fmt.Errorf("core: block has %d dimensions, want %d", len(cols), s.D)
	}
	rows := len(valid)
	for a, col := range cols {
		if len(col) != rows {
			return fmt.Errorf("core: block column %d has %d rows, want %d", a, len(col), rows)
		}
	}
	n := 0
	for _, ok := range valid {
		if ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	s.N += float64(n)
	// Dense blocks (no masked row) drop the per-element validity test:
	// the accumulation visits the same rows in the same order either
	// way, so the sums stay bit-identical — the branch-free loops just
	// let the compiler keep the dot products in registers.
	dense := n == rows
	for a, col := range cols {
		col = col[:rows]
		la, mn, mx := s.L[a], s.Min[a], s.Max[a]
		if dense {
			for _, v := range col {
				la += v
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
		} else {
			for r, ok := range valid {
				if !ok {
					continue
				}
				v := col[r]
				la += v
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
		}
		s.L[a], s.Min[a], s.Max[a] = la, mn, mx
	}
	dot := func(ca, cb []float64, q float64) float64 {
		ca, cb = ca[:rows], cb[:rows]
		if dense {
			for r, v := range ca {
				q += v * cb[r]
			}
			return q
		}
		for r, ok := range valid {
			if ok {
				q += ca[r] * cb[r]
			}
		}
		return q
	}
	// dot4 runs four slot accumulations through one pass over the rows.
	// The chains are independent, so the CPU overlaps their add
	// latencies — but each slot's own additions still happen in row
	// order, keeping every sum bit-identical to the sequential path.
	dot4 := func(ca []float64, cb [][]float64, b int, row []float64) {
		c0, c1, c2, c3 := cb[b][:rows], cb[b+1][:rows], cb[b+2][:rows], cb[b+3][:rows]
		q0, q1, q2, q3 := row[b], row[b+1], row[b+2], row[b+3]
		for r, v := range ca[:rows] {
			q0 += v * c0[r]
			q1 += v * c1[r]
			q2 += v * c2[r]
			q3 += v * c3[r]
		}
		row[b], row[b+1], row[b+2], row[b+3] = q0, q1, q2, q3
	}
	switch s.Type {
	case Diagonal:
		for a, col := range cols {
			s.Q[a*s.D+a] = dot(col, col, s.Q[a*s.D+a])
		}
	case Triangular:
		for a := 0; a < s.D; a++ {
			ca := cols[a]
			row := s.Q[a*s.D:]
			b := 0
			if dense {
				for ; b+4 <= a+1; b += 4 {
					dot4(ca, cols, b, row)
				}
			}
			for ; b <= a; b++ {
				row[b] = dot(ca, cols[b], row[b])
			}
		}
	case Full:
		for a := 0; a < s.D; a++ {
			ca := cols[a]
			row := s.Q[a*s.D:]
			b := 0
			if dense {
				for ; b+4 <= s.D; b += 4 {
					dot4(ca, cols, b, row)
				}
			}
			for ; b < s.D; b++ {
				row[b] = dot(ca, cols[b], row[b])
			}
		}
	}
	return nil
}

// Remove subtracts a previously added point — the decremental update
// that makes n, L, Q maintainable over sliding windows and incremental
// model refresh (the paper's future-work direction of keeping
// summaries current without rescanning X). Min/Max are not shrinkable
// from summaries alone and retain their historical envelope.
func (s *NLQ) Remove(x []float64) error {
	if len(x) != s.D {
		return fmt.Errorf("core: point has %d dimensions, want %d", len(x), s.D)
	}
	if s.N < 1 {
		return errors.New("core: cannot remove from an empty NLQ")
	}
	s.N--
	for a, v := range x {
		s.L[a] -= v
	}
	switch s.Type {
	case Diagonal:
		for a, v := range x {
			s.Q[a*s.D+a] -= v * v
		}
	case Triangular:
		for a := 0; a < s.D; a++ {
			va := x[a]
			row := s.Q[a*s.D:]
			for b := 0; b <= a; b++ {
				row[b] -= va * x[b]
			}
		}
	case Full:
		for a := 0; a < s.D; a++ {
			va := x[a]
			row := s.Q[a*s.D:]
			for b := 0; b < s.D; b++ {
				row[b] -= va * x[b]
			}
		}
	}
	return nil
}

// Merge folds other into s (the UDF's phase-3 partial-result
// aggregation across parallel threads).
func (s *NLQ) Merge(other *NLQ) error {
	if other.D != s.D || other.Type != s.Type {
		return fmt.Errorf("core: cannot merge NLQ(d=%d,%v) into NLQ(d=%d,%v)",
			other.D, other.Type, s.D, s.Type)
	}
	s.N += other.N
	for i, v := range other.L {
		s.L[i] += v
	}
	for i, v := range other.Q {
		s.Q[i] += v
	}
	for i := range s.Min {
		if other.Min[i] < s.Min[i] {
			s.Min[i] = other.Min[i]
		}
		if other.Max[i] > s.Max[i] {
			s.Max[i] = other.Max[i]
		}
	}
	return nil
}

// QAt returns Qab, symmetrizing triangular storage. Reading an
// off-diagonal entry of a Diagonal NLQ returns 0.
func (s *NLQ) QAt(a, b int) float64 {
	if s.Type == Triangular && b > a {
		a, b = b, a
	}
	return s.Q[a*s.D+b]
}

// Mean returns µ = L/n.
func (s *NLQ) Mean() ([]float64, error) {
	if s.N == 0 {
		return nil, errors.New("core: empty NLQ has no mean")
	}
	mu := make([]float64, s.D)
	for i, v := range s.L {
		mu[i] = v / s.N
	}
	return mu, nil
}

// Reset clears the accumulator for reuse.
func (s *NLQ) Reset() {
	s.N = 0
	for i := range s.L {
		s.L[i] = 0
		s.Min[i] = math.Inf(1)
		s.Max[i] = math.Inf(-1)
	}
	for i := range s.Q {
		s.Q[i] = 0
	}
}

// Clone returns an independent copy.
func (s *NLQ) Clone() *NLQ {
	c := &NLQ{D: s.D, Type: s.Type, N: s.N}
	c.L = append([]float64(nil), s.L...)
	c.Q = append([]float64(nil), s.Q...)
	c.Min = append([]float64(nil), s.Min...)
	c.Max = append([]float64(nil), s.Max...)
	return c
}

// HeapBytes reports the UDF heap footprint of this state, the quantity
// the 64 KB segment constrains: d² for Q, plus L, Min and Max, plus the
// scalar header.
func (s *NLQ) HeapBytes() int {
	return 8 * (s.D*s.D + 3*s.D + 2)
}
