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
	update(s.Type, s.L, s.Min, s.Max, s.Q, x, x, s.D, s.D, 1)
	return nil
}

// TileRows is the most points one kernel call folds. Eight float64s
// are one cache line of each column in FillTile's transpose.
const TileRows = 8

// UpdateRows folds the len(rows)/D points stored row-major in rows: it
// is Update over each in order, TileRows points per kernel call.
func (s *NLQ) UpdateRows(rows []float64) error {
	d := s.D
	if len(rows)%d != 0 {
		return fmt.Errorf("core: %d values are not whole points of %d dimensions", len(rows), d)
	}
	for len(rows) > 0 {
		k := min(TileRows, len(rows)/d)
		s.N += float64(k)
		update(s.Type, s.L, s.Min, s.Max, s.Q, rows, rows, d, d, k)
		rows = rows[k*d:]
	}
	return nil
}

// allValid is the mask of a tile whose every row is valid.
var allValid = func() (v [TileRows]bool) {
	for i := range v {
		v[i] = true
	}
	return v
}()

// FillTile is the column-to-row transpose of every block path: it
// appends the valid rows of a column-wise block, from row r on, to a
// row-major tile of TileRows rows of len(cols) values that already holds
// k, until the tile is full or the block ends. cols[a][i] is row i's
// value a and valid[i] gates row i; the block has len(valid) rows, a
// masked row is skipped. It returns the rows the tile now holds and the
// first row not yet read, and writes nothing past the rows it holds.
//
// Eight valid rows onto an empty tile are moved a cache line per column;
// other rows one at a time.
func FillTile(tile []float64, k int, cols [][]float64, valid []bool, r int) (int, int) {
	w := len(cols)
	if k == 0 && r+TileRows <= len(valid) && [TileRows]bool(valid[r:r+TileRows]) == allValid {
		t0, t1, t2, t3 := tile[:w], tile[w:2*w], tile[2*w:3*w], tile[3*w:4*w]
		t4, t5, t6, t7 := tile[4*w:5*w], tile[5*w:6*w], tile[6*w:7*w], tile[7*w:8*w]
		for a, col := range cols {
			c := (*[TileRows]float64)(col[r:])
			t0[a], t1[a], t2[a], t3[a] = c[0], c[1], c[2], c[3]
			t4[a], t5[a], t6[a], t7[a] = c[4], c[5], c[6], c[7]
		}
		return TileRows, r + TileRows
	}
	for ; k < TileRows && r < len(valid); r++ {
		if valid[r] {
			row := tile[k*w : (k+1)*w]
			for a, col := range cols {
				row[a] = col[r]
			}
			k++
		}
	}
	return k, r
}

// UpdateBlock folds a column-wise batch of points into the summaries:
// cols[a][r] is row r's value for dimension a, and valid[r] gates the
// row (rows with a NULL or non-numeric value in any dimension arrive
// masked out, exactly the rows the row-at-a-time scan skips).
//
// It is Update over the valid rows in order, so partials computed
// block-wise merge byte-for-byte with partials computed row-wise (the
// cluster coordinator's push-down algebra relies on this): FillTile
// gathers them a tile at a time, and each tile goes to the kernel in
// one call.
func (s *NLQ) UpdateBlock(cols [][]float64, valid []bool) error {
	if len(cols) != s.D {
		return fmt.Errorf("core: block has %d dimensions, want %d", len(cols), s.D)
	}
	for a, col := range cols {
		if len(col) != len(valid) {
			return fmt.Errorf("core: block column %d has %d rows, want %d", a, len(col), len(valid))
		}
	}
	d := s.D
	tile := make([]float64, TileRows*d)
	for r, k := 0, 0; r < len(valid); {
		if k, r = FillTile(tile, 0, cols, valid, r); k > 0 {
			s.N += float64(k)
			update(s.Type, s.L, s.Min, s.Max, s.Q, tile, tile, d, d, k)
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
			s.Q[a*s.D+a] -= float64(v * v)
		}
	case Triangular:
		for a := 0; a < s.D; a++ {
			va := x[a]
			row := s.Q[a*s.D:]
			for b := 0; b <= a; b++ {
				row[b] -= float64(x[b] * va)
			}
		}
	case Full:
		for a := 0; a < s.D; a++ {
			va := x[a]
			row := s.Q[a*s.D:]
			for b := 0; b < s.D; b++ {
				row[b] -= float64(x[b] * va)
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
