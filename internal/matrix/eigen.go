package matrix

import (
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

// SymEigen computes the eigendecomposition of a symmetric matrix using
// the cyclic Jacobi rotation method. For the d×d correlation and
// covariance matrices PCA works on (d ≤ a few hundred) Jacobi is
// accurate and fast, and for symmetric positive semi-definite input it
// coincides with the SVD the paper uses.
func SymEigen(m *Dense) (*Eigen, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: SymEigen of non-square %d×%d", m.rows, m.cols)
	}
	if !m.IsSymmetric(1e-8) {
		return nil, fmt.Errorf("matrix: SymEigen requires a symmetric matrix")
	}
	n := m.rows
	a := m.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, x := range a.rowView(i)[i+1:] {
				off += x * x
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(a, v, p, q, c, s)
			}
		}
	}

	eig := &Eigen{Values: make([]float64, n), Vectors: New(n, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
	}
	sort.Slice(order, func(x, y int) bool { return diag[order[x]] > diag[order[y]] })
	for rank, idx := range order {
		eig.Values[rank] = diag[idx]
		for r := 0; r < n; r++ {
			eig.Vectors.Set(r, rank, v.At(r, idx))
		}
	}
	return eig, nil
}

// rotate applies the Jacobi rotation J(p,q,θ) to a (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided). The three
// passes index the backing slices directly — ~6n element accesses per
// rotation, n² rotations per sweep, is where SymEigen spends its time —
// and keep the order of the arithmetic: columns p and q of a, then rows
// p and q of a, then columns p and q of v.
func rotate(a, v *Dense, p, q int, c, s float64) {
	n := a.rows
	rotateCols(a.data, n, p, q, c, s)
	rp, rq := a.rowView(p), a.rowView(q)
	for k, apk := range rp {
		aqk := rq[k]
		rp[k] = c*apk - s*aqk
		rq[k] = s*apk + c*aqk
	}
	rotateCols(v.data, n, p, q, c, s)
}

// rotateCols rotates columns p and q of the row-major n×n matrix d.
func rotateCols(d []float64, n, p, q int, c, s float64) {
	for row := d; len(row) >= n; row = row[n:] {
		xp, xq := row[p], row[q]
		row[p] = c*xp - s*xq
		row[q] = s*xp + c*xq
	}
}

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
