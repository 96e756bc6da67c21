package matrix

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: values in
// descending order and the corresponding orthonormal eigenvectors as
// the *columns* of Vectors.
type Eigen struct {
	Values  []float64
	Vectors *Dense
}

// ErrNotFinite is returned by SymEigen for input holding a NaN or an
// infinity, and for finite input whose eigenvalues overflow float64.
var ErrNotFinite = errors.New("matrix: non-finite value")

// ErrNoConvergence is returned by SymEigen when the QL iteration on one
// eigenvalue needs more than maxQLIters steps.
var ErrNoConvergence = errors.New("matrix: QL iteration did not converge")

// maxQLIters bounds the implicit-shift QL steps spent on one eigenvalue,
// the limit EISPACK tql2 and LAPACK dsteqr use; two or three suffice in
// practice.
const maxQLIters = 30

// SymEigen computes the eigendecomposition of a symmetric matrix with
// the dense symmetric solver of EISPACK (tred2 + tql2, the algorithm of
// LAPACK's dsyev): a Householder reduction to tridiagonal form with the
// transforms accumulated, then implicit-shift QL on the tridiagonal.
// For symmetric positive semi-definite input — the correlation and
// covariance matrices PCA works on — it coincides with the SVD the
// paper uses.
//
// Each eigenvector's sign is fixed: its largest-magnitude component,
// the lowest index on a tie, is positive. Equal input gives equal bits
// on every call. Input with a non-finite entry returns ErrNotFinite.
func SymEigen(m *Dense) (*Eigen, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: SymEigen of non-square %d×%d", m.rows, m.cols)
	}
	amax := maxAbs(m.data)
	if !isFinite(amax) {
		return nil, fmt.Errorf("%w in SymEigen input", ErrNotFinite)
	}
	if !m.IsSymmetric(1e-8) {
		return nil, fmt.Errorf("matrix: SymEigen requires a symmetric matrix")
	}
	n := m.rows
	eig := &Eigen{Values: make([]float64, n), Vectors: New(n, n)}
	if n == 0 {
		return eig, nil
	}

	// w holds Vᵀ, the eigenvectors as rows, so that every inner loop of
	// both phases runs along a row; A is symmetric, so it starts as A.
	w := m.Clone().data
	// Far from 1, products of entries under- or overflow. A matrix
	// outside dsyev's safe range [2⁻⁴⁸⁵, 2⁴⁸⁵] is scaled, as dsyev does,
	// by a power of two (exact) into [½, 1), its eigenvalues scaled back.
	exp := 0
	if amax != 0 && (amax < 0x1p-485 || amax > 0x1p485) {
		_, exp = math.Frexp(amax)
		for i, x := range w {
			w[i] = math.Ldexp(x, -exp)
		}
	}
	d, e := make([]float64, n), make([]float64, n)
	tridiagonalize(w, n, d, e)
	if err := diagonalize(w, n, d, e); err != nil {
		return nil, err
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return d[order[x]] > d[order[y]] })
	for rank, idx := range order {
		v := math.Ldexp(d[idx], exp)
		vec := w[idx*n : (idx+1)*n]
		if !isFinite(v) || !isFinite(maxAbs(vec)) {
			return nil, fmt.Errorf("%w in SymEigen result", ErrNotFinite)
		}
		eig.Values[rank] = v
		big := 0
		for k, x := range vec {
			if math.Abs(x) > math.Abs(vec[big]) {
				big = k
			}
		}
		sign := 1.0
		if vec[big] < 0 {
			sign = -1
		}
		for r, x := range vec {
			eig.Vectors.data[r*n+rank] = sign * x
		}
	}
	return eig, nil
}

// tridiagonalize is EISPACK tred2 on the row-major n×n matrix w, which
// holds a symmetric A (only its upper triangle is read). It leaves the
// diagonal of T = QᵀAQ in d, its subdiagonal in e[1:], and Qᵀ in w.
// Stored transposed, every column sweep of the column-oriented
// original runs along a row.
func tridiagonalize(w []float64, n int, d, e []float64) {
	row := func(i int) []float64 { return w[i*n : (i+1)*n] }
	for j := range d {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		wi := row(i)
		scale, h := 0.0, 0.0
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				wi[j] = 0
			}
			d[i] = h
			continue
		}
		// The Householder vector, scaled against under- and overflow.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// The similarity transform of the leading i×i block.
		for j := 0; j < i; j++ {
			f = d[j]
			wi[j] = f
			wj := row(j)[:i]
			g = e[j] + wj[j]*f
			for k := j + 1; k < i; k++ {
				g += wj[k] * d[k]
				e[k] += wj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			wj := row(j)
			for k := j; k < i; k++ {
				wj[k] -= f*e[k] + g*d[k]
			}
			d[j] = wj[i-1]
			wj[i] = 0
		}
		d[i] = h
	}
	// Accumulate the transforms into Qᵀ.
	for i := 0; i < n-1; i++ {
		wi, next := row(i), row(i + 1)[:i+1]
		wi[n-1] = wi[i]
		wi[i] = 1
		if h := d[i+1]; h != 0 {
			for k, x := range next {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				wj := row(j)[:i+1]
				g := 0.0
				for k, x := range next {
					g += x * wj[k]
				}
				for k := range wj {
					wj[k] -= g * d[k]
				}
			}
		}
		clear(next)
	}
	for j := range d {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// diagonalize is EISPACK tql2: implicit-shift QL on the tridiagonal
// (d, e[1:]) left by tridiagonalize, accumulating each plane rotation
// into the rows of w. It leaves the eigenvalues, unsorted, in d and the
// eigenvectors as the rows of w.
func diagonalize(w []float64, n int, d, e []float64) error {
	copy(e, e[1:])
	e[n-1] = 0
	// A subdiagonal element is negligible below ε·‖T‖. tql2 measures
	// against the rows seen so far instead, which lets a leading block
	// of entries far below ‖T‖ iterate in subnormal arithmetic and lose
	// the orthogonality of the vectors.
	const eps = 0x1p-52
	tst1 := 0.0
	for i, x := range d {
		tst1 = math.Max(tst1, math.Abs(x)+math.Abs(e[i]))
	}
	f := 0.0
	for l := 0; l < n; l++ {
		// Split off at the first negligible subdiagonal element; e[n-1]
		// is zero, so m stays in range even when e holds a NaN.
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for iter := 0; m > l && math.Abs(e[l]) > eps*tst1; iter++ {
			if iter == maxQLIters {
				return fmt.Errorf("%w after %d steps on eigenvalue %d of %d", ErrNoConvergence, iter, l, n)
			}
			// The implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// The QL sweep, chasing the bulge from m up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				wi, wn := w[i*n:(i+1)*n], w[(i+1)*n:(i+2)*n]
				for k, x := range wi {
					y := wn[k]
					wn[k] = s*x + c*y
					wi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// maxAbs returns the largest |x| in xs: NaN if any x is NaN, +Inf if
// any is infinite.
func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TopComponents returns the first k eigenvectors as a d×k matrix Λ —
// the dimensionality reduction matrix of PCA — along with their
// eigenvalues.
func (e *Eigen) TopComponents(k int) (*Dense, []float64) {
	d := e.Vectors.Rows()
	if k < 1 || k > d {
		panic(fmt.Sprintf("matrix: TopComponents k=%d out of range 1..%d", k, d))
	}
	lambda := New(d, k)
	for i := 0; i < d; i++ {
		for j := 0; j < k; j++ {
			lambda.Set(i, j, e.Vectors.At(i, j))
		}
	}
	vals := make([]float64, k)
	copy(vals, e.Values[:k])
	return lambda, vals
}
