package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix cannot be inverted or factored
// because it is singular (or numerically indistinguishable from it).
var ErrSingular = errors.New("matrix: singular matrix")

// Inverse returns m⁻¹ computed by Gauss-Jordan elimination with partial
// pivoting. It returns ErrSingular when a pivot collapses below eps.
//
// This is the paper's "invert Q outside the DBMS" step; Q is (d+1)×(d+1)
// so cubic cost is irrelevant next to the table scan.
func (m *Dense) Inverse() (*Dense, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: Inverse of non-square %d×%d", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	// The elimination works on row views of the two backing arrays: at
	// (d+1)² elements per pivot, a checked accessor call per element is
	// most of the cost.
	const eps = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at/below diag.
		pivot := col
		best := math.Abs(a.data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.data[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < eps {
			return nil, ErrSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			inv.swapRows(col, pivot)
		}
		// (Re-slicing the other three rows to len(ac) is what lets the
		// compiler drop the bounds checks from the loops below.)
		ac := a.rowView(col)
		ic := inv.rowView(col)[:len(ac)]
		p := ac[col]
		for j := range ac {
			ac[j] /= p
			ic[j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			ar, ir := a.rowView(r)[:len(ac)], inv.rowView(r)[:len(ac)]
			f := ar[col]
			if f == 0 {
				continue
			}
			// The conversions round each product before the add, as the
			// accessor call this replaces did: no fused multiply-add, so
			// the inverse is the same bits on every architecture.
			for j := range ac {
				ar[j] += float64(-f * ac[j])
				ir[j] += float64(-f * ic[j])
			}
		}
	}
	return inv, nil
}

// rowView returns row i of the backing array itself, not a copy.
func (m *Dense) rowView(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

func (m *Dense) swapRows(i, j int) {
	ri, rj := m.rowView(i), m.rowView(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve solves m·x = b for x using the inverse; b has one column per
// right-hand side. Returns ErrSingular when m is singular.
func (m *Dense) Solve(b *Dense) (*Dense, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.Mul(b), nil
}

// SolveVec solves m·x = b for a single right-hand-side vector.
func (m *Dense) SolveVec(b []float64) ([]float64, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b), nil
}

// Cholesky returns the lower-triangular L with m = L·Lᵀ. It requires m
// to be symmetric positive definite and returns ErrSingular otherwise.
func (m *Dense) Cholesky() (*Dense, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: Cholesky of non-square %d×%d", m.rows, m.cols)
	}
	n := m.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Det returns the determinant via LU elimination with partial pivoting.
func (m *Dense) Det() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: Det of non-square %d×%d", m.rows, m.cols))
	}
	n := m.rows
	a := m.Clone()
	det := 1.0
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return 0
		}
		if pivot != col {
			a.swapRows(col, pivot)
			det = -det
		}
		p := a.At(col, col)
		det *= p
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Add(r, j, -f*a.At(col, j))
			}
		}
	}
	return det
}
