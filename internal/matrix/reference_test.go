package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refInverse is Inverse as it was written over the checked At/Set/Add
// accessors. Inverse indexes the backing slices and must perform the
// same floating-point operations in the same order, so its result is
// compared by its bits, not by a tolerance.
//
// refSymEigen is an independent eigensolver, cyclic Jacobi over the
// accessors. SymEigen (Householder + QL) takes a different path to the
// same decomposition, so the two are compared within bounds set by ‖A‖.

func refRotate(a, v *Dense, p, q int, c, s float64) {
	n := a.rows
	for k := 0; k < n; k++ {
		akp, akq := a.At(k, p), a.At(k, q)
		a.Set(k, p, c*akp-s*akq)
		a.Set(k, q, s*akp+c*akq)
	}
	for k := 0; k < n; k++ {
		apk, aqk := a.At(p, k), a.At(q, k)
		a.Set(p, k, c*apk-s*aqk)
		a.Set(q, k, s*apk+c*aqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func refSymEigen(m *Dense) *Eigen {
	n := m.rows
	a := m.Clone()
	v := Identity(n)
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
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
				refRotate(a, v, p, q, c, s)
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
	return eig
}

func refInverse(m *Dense) (*Dense, error) {
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	const eps = 1e-12
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
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
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Add(r, j, -f*a.At(col, j))
				inv.Add(r, j, -f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

// randomSymmetric returns a symmetric matrix; with spd it is BᵀB + I·n,
// the shape of the Q and correlation matrices the models feed in.
func randomSymmetric(rng *rand.Rand, n int, spd bool) *Dense {
	if spd {
		b := randomMatrix(rng, n, n)
		m := b.Transpose().Mul(b)
		for i := 0; i < n; i++ {
			m.Add(i, i, float64(n))
		}
		// BᵀB is symmetric up to rounding; make it exactly so.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(j, i, m.At(i, j))
			}
		}
		return m
	}
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestInverseMatchesReferenceBits(t *testing.T) {
	for _, n := range []int{2, 5, 32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		count := 50
		if raceEnabled && n > 32 {
			count = 4
		}
		for k := 0; k < count; k++ {
			m := randomSymmetric(rng, n, k%2 == 1)
			orig := m.Clone()
			inv, err := m.Inverse()
			refInv, refErr := refInverse(m)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("n=%d #%d: Inverse err %v, reference %v", n, k, err, refErr)
			}
			if err == nil {
				sameBits(t, "inverse", inv.data, refInv.data)
			}
			sameBits(t, "input left untouched", m.data, orig.data)
		}
	}
}

// eigenCase builds a test matrix A = s·O: SymEigen runs on A, the
// Jacobi oracle on O, whose entries are of order one.
type eigenCase struct {
	name string
	gen  func(rng *rand.Rand, n int) (o *Dense, s float64)
}

var eigenCases = []eigenCase{
	{"spd", func(rng *rand.Rand, n int) (*Dense, float64) { return randomSymmetric(rng, n, true), 1 }},
	{"indefinite", func(rng *rand.Rand, n int) (*Dense, float64) { return randomSymmetric(rng, n, false), 1 }},
	{"diagonal-unsorted", func(rng *rand.Rand, n int) (*Dense, float64) {
		o := New(n, n)
		for i := 0; i < n; i++ {
			o.Set(i, i, 10*rng.NormFloat64())
		}
		return o, 1
	}},
	{"zero", func(rng *rand.Rand, n int) (*Dense, float64) { return New(n, n), 1 }},
	{"identity+rank-1", func(rng *rand.Rand, n int) (*Dense, float64) {
		// Eigenvalue 1 repeated n−1 times, and 1 + ‖u‖².
		o := Identity(n)
		u := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				o.Add(i, j, u[i]*u[j])
			}
		}
		return o, 1
	}},
	{"correlation-constant-column", func(rng *rand.Rand, n int) (*Dense, float64) {
		return correlationWithConstantColumn(rng, n), 1
	}},
	{"scaled-1e-150", func(rng *rand.Rand, n int) (*Dense, float64) { return randomSymmetric(rng, n, false), 1e-150 }},
	{"scaled-1e+150", func(rng *rand.Rand, n int) (*Dense, float64) { return randomSymmetric(rng, n, true), 1e+150 }},
}

// correlationWithConstantColumn is the correlation matrix of 3n+5
// random points whose first dimension is constant, built as
// core.NLQ.Correlation builds it: the zero-variance dimension has 1 on
// the diagonal and 0 elsewhere.
func correlationWithConstantColumn(rng *rand.Rand, n int) *Dense {
	x := randomMatrix(rng, 3*n+5, n)
	for r := 0; r < x.Rows(); r++ {
		x.Set(r, 0, 7)
	}
	mean := make([]float64, n)
	for r := 0; r < x.Rows(); r++ {
		for j := range mean {
			mean[j] += x.At(r, j)
		}
	}
	for j := range mean {
		mean[j] /= float64(x.Rows()) // exactly 7 for the constant column
	}
	cov := New(n, n)
	for r := 0; r < x.Rows(); r++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cov.Add(i, j, (x.At(r, i)-mean[i])*(x.At(r, j)-mean[j]))
			}
		}
	}
	rho := Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if den := math.Sqrt(cov.At(i, i) * cov.At(j, j)); i != j && den != 0 {
				rho.Set(i, j, cov.At(i, j)/den)
			}
		}
	}
	return rho
}

func frobenius(m *Dense) float64 {
	var s float64
	for _, x := range m.data {
		s += x * x
	}
	return math.Sqrt(s)
}

// TestSymEigenMatchesJacobi compares SymEigen with the Jacobi oracle.
// With ε the unit roundoff and ‖·‖ the Frobenius norm of O, both
// solvers are backward stable, so
//   - each eigenvalue agrees within 64·n·ε·‖O‖;
//   - the vectors of an eigenvalue whose gap g to its neighbours exceeds
//     10⁻³·‖O‖ agree in direction: 1 − |cos| ≤ (2·64·n·ε·‖O‖/g)² + 4·n·ε
//     (Davis–Kahan, plus rounding in the dot product);
//
// and eigenDefect holds for A. Two calls give the same bits and leave
// A untouched.
func TestSymEigenMatchesJacobi(t *testing.T) {
	const eps = 0x1p-53
	for _, n := range []int{1, 2, 3, 5, 32, 33, 64, 128} {
		if raceEnabled && n > 64 {
			continue
		}
		for ci, c := range eigenCases {
			rng := rand.New(rand.NewSource(int64(100*n + ci)))
			o, s := c.gen(rng, n)
			a := o.Scale(s)
			orig := a.Clone()
			e, err := SymEigen(a)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, c.name, err)
			}
			if msg := eigenDefect(a, e); msg != "" {
				t.Fatalf("n=%d %s: %s", n, c.name, msg)
			}
			again, err := SymEigen(a)
			if err != nil {
				t.Fatalf("n=%d %s: second call: %v", n, c.name, err)
			}
			sameBits(t, c.name+" eigenvalues, second call", again.Values, e.Values)
			sameBits(t, c.name+" eigenvectors, second call", again.Vectors.data, e.Vectors.data)
			sameBits(t, c.name+" input left untouched", a.data, orig.data)

			ref := refSymEigen(o)
			norm := frobenius(o)
			tolVal := 64 * float64(n) * eps * norm
			for i, v := range e.Values {
				if d := math.Abs(v/s - ref.Values[i]); d > tolVal {
					t.Fatalf("n=%d %s: λ[%d] = %g, Jacobi %g (|Δ| %g > %g)", n, c.name, i, v/s, ref.Values[i], d, tolVal)
				}
			}
			for i := 0; i < n; i++ {
				gap := math.Inf(1)
				if i > 0 {
					gap = ref.Values[i-1] - ref.Values[i]
				}
				if i < n-1 {
					gap = math.Min(gap, ref.Values[i]-ref.Values[i+1])
				}
				if gap <= 1e-3*norm {
					continue
				}
				var cos float64
				for k := 0; k < n; k++ {
					cos += e.Vectors.At(k, i) * ref.Vectors.At(k, i)
				}
				bound := 2*tolVal/gap*(2*tolVal/gap) + 4*float64(n)*eps
				if 1-math.Abs(cos) > bound {
					t.Fatalf("n=%d %s: vector %d: 1−|cos| = %g with Jacobi, bound %g", n, c.name, i, 1-math.Abs(cos), bound)
				}
			}
		}
	}
}

// eigenDefect returns what is wrong with e as the eigendecomposition of
// the symmetric n×n matrix a, or "" when nothing is: the values must
// descend, ‖VΛVᵀ − A‖max ≤ 32·n·ε·‖A‖ (plus the rounding of
// subnormal eigenvalues), ‖VᵀV − I‖max ≤ 32·n·ε, and
// each vector's largest-magnitude component, the lowest index on a tie,
// must be positive. A and Λ are first scaled by the power of two that
// brings max|aᵢⱼ| into [½, 1), so that the check cannot overflow where
// SymEigen did not.
func eigenDefect(a *Dense, e *Eigen) string {
	const eps = 0x1p-53
	n := a.Rows()
	if len(e.Values) != n || e.Vectors.Rows() != n || e.Vectors.Cols() != n {
		return fmt.Sprintf("shape: %d values, %d×%d vectors for n=%d", len(e.Values), e.Vectors.Rows(), e.Vectors.Cols(), n)
	}
	_, exp := math.Frexp(maxAbs(a.data))
	b := New(n, n)
	for i, x := range a.data {
		b.data[i] = math.Ldexp(x, -exp)
	}
	lam := make([]float64, n)
	for i, v := range e.Values {
		if i > 0 && !(v <= e.Values[i-1]) {
			return fmt.Sprintf("values not descending: λ[%d] = %g after %g", i, v, e.Values[i-1])
		}
		lam[i] = math.Ldexp(v, -exp)
	}
	v, vt := e.Vectors, e.Vectors.Transpose()
	// An eigenvalue below the normal range carries only the absolute
	// precision of a subnormal, 2⁻¹⁰⁷⁴: 2^(−1074−exp) once scaled.
	tolRecon := 32*float64(n)*eps*frobenius(b) + float64(n)*math.Ldexp(0x1p-1074, -exp)
	tolOrtho := 32 * float64(n) * eps
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var recon, dot float64
			vi, vj, ti, tj := v.rowView(i), v.rowView(j), vt.rowView(i), vt.rowView(j)
			for k := range vi {
				recon += vi[k] * lam[k] * vj[k]
				dot += ti[k] * tj[k]
			}
			if r := math.Abs(recon - b.At(i, j)); !(r <= tolRecon) {
				return fmt.Sprintf("reconstruction: |(VΛVᵀ − A)[%d,%d]| = %g·2^%d > %g·2^%d", i, j, r, exp, tolRecon, exp)
			}
			if i == j {
				dot--
			}
			if r := math.Abs(dot); !(r <= tolOrtho) {
				return fmt.Sprintf("orthonormality: |(VᵀV − I)[%d,%d]| = %g > %g", i, j, r, tolOrtho)
			}
		}
		big := 0
		for k := 1; k < n; k++ {
			if math.Abs(v.At(k, i)) > math.Abs(v.At(big, i)) {
				big = k
			}
		}
		if v.At(big, i) <= 0 {
			return fmt.Sprintf("sign: vector %d has largest component %g at %d", i, v.At(big, i), big)
		}
	}
	return ""
}

// A matrix that forces row swaps and zero multipliers: the pivot search
// and the f == 0 skip are part of the operation order too.
func TestInverseMatchesReferenceOnPivotingInput(t *testing.T) {
	m := FromSlice(4, 4, []float64{
		0, 2, 0, 1,
		3, 0, 0, 0,
		0, 0, 5, 0,
		1, 0, 0, 4,
	})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refInverse(m)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "inverse", inv.data, ref.data)
	if _, err := New(3, 3).Inverse(); err != ErrSingular {
		t.Fatalf("zero matrix: %v, want ErrSingular", err)
	}
}

var benchSink float64

func benchSymEigen(b *testing.B, n int) {
	m := randomSymmetric(rand.New(rand.NewSource(1)), n, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := SymEigen(m)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += e.Values[0]
	}
}

func BenchmarkSymEigen8(b *testing.B)  { benchSymEigen(b, 8) }
func BenchmarkSymEigen32(b *testing.B) { benchSymEigen(b, 32) }
func BenchmarkSymEigen64(b *testing.B) { benchSymEigen(b, 64) }

func BenchmarkInverse33(b *testing.B) {
	m := randomSymmetric(rand.New(rand.NewSource(1)), 33, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv, err := m.Inverse()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += inv.data[0]
	}
}
