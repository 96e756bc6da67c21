package matrix

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference implementations below are SymEigen and Inverse as they
// were written over the checked At/Set/Add accessors. The package's own
// versions index the backing slices and must perform the same
// floating-point operations in the same order, so every result is
// compared by its bits, not by a tolerance.

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

func TestSymEigenAndInverseMatchReferenceBits(t *testing.T) {
	for _, n := range []int{2, 5, 32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		count := 50
		if raceEnabled && n > 32 {
			count = 4
		}
		for k := 0; k < count; k++ {
			m := randomSymmetric(rng, n, k%2 == 1)
			orig := m.Clone()
			e, err := SymEigen(m)
			if err != nil {
				t.Fatalf("n=%d #%d: %v", n, k, err)
			}
			ref := refSymEigen(m)
			sameBits(t, "eigenvalues", e.Values, ref.Values)
			sameBits(t, "eigenvectors", e.Vectors.data, ref.Vectors.data)

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

func BenchmarkSymEigen32(b *testing.B) {
	m := randomSymmetric(rand.New(rand.NewSource(1)), 32, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := SymEigen(m)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += e.Values[0]
	}
}

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
