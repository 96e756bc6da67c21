package matrix

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	m := FromSlice(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if !almostEqual(e.Values[i], v, 1e-10) {
			t.Fatalf("values = %v, want %v", e.Values, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	e, err := SymEigen(FromSlice(2, 2, []float64{2, 1, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 3, 1e-10) || !almostEqual(e.Values[1], 1, 1e-10) {
		t.Fatalf("values = %v", e.Values)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	// Property: V·diag(λ)·Vᵀ ≈ A and VᵀV ≈ I for random symmetric A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		d := New(n, n)
		for i, v := range e.Values {
			d.Set(i, i, v)
		}
		recon := e.Vectors.Mul(d).Mul(e.Vectors.Transpose())
		ortho := e.Vectors.Transpose().Mul(e.Vectors)
		return recon.MaxAbsDiff(a) < 1e-8 && ortho.MaxAbsDiff(Identity(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenValuesSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 6
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if e.Values[i] > e.Values[i-1]+1e-12 {
			t.Fatalf("values not descending: %v", e.Values)
		}
	}
}

func TestSymEigenRejectsBadInput(t *testing.T) {
	if _, err := SymEigen(FromSlice(2, 3, make([]float64, 6))); err == nil {
		t.Fatal("non-square must be rejected")
	}
	if _, err := SymEigen(FromSlice(2, 2, []float64{1, 2, 3, 4})); err == nil {
		t.Fatal("asymmetric must be rejected")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {0, 2}} {
			m := Identity(3)
			m.Set(at[0], at[1], bad)
			m.Set(at[1], at[0], bad)
			if _, err := SymEigen(m); !errors.Is(err, ErrNotFinite) {
				t.Fatalf("%g at %v: err %v, want ErrNotFinite", bad, at, err)
			}
		}
	}
	// Finite entries whose eigenvalue 2·MaxFloat64 overflows.
	big := FromSlice(2, 2, []float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64})
	if _, err := SymEigen(big); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("overflowing eigenvalue: err %v, want ErrNotFinite", err)
	}
}

// fuzzMatrix reads a symmetric matrix of order 1 + data[0]%12 from data:
// the upper triangle row by row, each entry the raw bits of a float64
// (little-endian), zero once the bytes run out.
func fuzzMatrix(data []byte) *Dense {
	n := 1 + int(data[0])%12
	data = data[1:]
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var x float64
			if len(data) >= 8 {
				x = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			m.Set(i, j, x)
			m.Set(j, i, x)
		}
	}
	return m
}

func fuzzMatrixBytes(n int, upper ...float64) []byte {
	b := []byte{byte(n - 1)}
	for _, x := range upper {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzSymEigen feeds SymEigen symmetric matrices of up to 12×12 whose
// entries are arbitrary float64 bit patterns: NaN, infinities,
// subnormals and values at the edge of the range. Every input either
// fails with ErrNotFinite — it holds a non-finite entry, or its entries
// are large enough (n·max|aᵢⱼ| > MaxFloat64) for an eigenvalue to
// overflow — or decomposes within the bounds eigenDefect checks.
func FuzzSymEigen(f *testing.F) {
	f.Add(fuzzMatrixBytes(3, 2, 1, 0, 2, 1, 2))
	f.Add(fuzzMatrixBytes(2, math.NaN(), 0, 1))
	f.Add(fuzzMatrixBytes(2, 1, math.Inf(-1), 1))
	f.Add(fuzzMatrixBytes(3, 5e-324, 1e-310, 0, 4e-320, 0, 5e-324))
	f.Add(fuzzMatrixBytes(2, math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64))
	f.Add(fuzzMatrixBytes(3, 1e300, 1, 1e-300, -1e300, 1, 1e300))
	f.Add(fuzzMatrixBytes(4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a := fuzzMatrix(data)
		n := a.Rows()
		amax := maxAbs(a.data)
		e, err := SymEigen(a)
		switch {
		case !isFinite(amax):
			if !errors.Is(err, ErrNotFinite) {
				t.Fatalf("non-finite input: err %v, want ErrNotFinite", err)
			}
		case err != nil:
			if !errors.Is(err, ErrNotFinite) || amax <= math.MaxFloat64/float64(n) {
				t.Fatalf("finite %d×%d input, max|aᵢⱼ| = %g: %v", n, n, amax, err)
			}
		default:
			if msg := eigenDefect(a, e); msg != "" {
				t.Fatalf("%d×%d: %s\n%v", n, n, msg, a)
			}
		}
	})
}

func TestTopComponentsOrthogonal(t *testing.T) {
	// ΛᵀΛ = I_k: the paper's orthogonality property of the reduction matrix.
	rng := rand.New(rand.NewSource(3))
	n := 8
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	lambda, vals := e.TopComponents(k)
	if lambda.Rows() != n || lambda.Cols() != k || len(vals) != k {
		t.Fatalf("shape %d×%d, %d values", lambda.Rows(), lambda.Cols(), len(vals))
	}
	if got := lambda.Transpose().Mul(lambda); got.MaxAbsDiff(Identity(k)) > 1e-8 {
		t.Fatalf("ΛᵀΛ != I:\n%v", got)
	}
}

func TestTopComponentsPanicsOutOfRange(t *testing.T) {
	e, _ := SymEigen(Identity(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k out of range")
		}
	}()
	e.TopComponents(4)
}

func TestSymEigenTraceInvariant(t *testing.T) {
	// Sum of eigenvalues equals the trace.
	rng := rand.New(rand.NewSource(5))
	n := 5
	a := New(n, n)
	trace := 0.0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		trace += a.At(i, i)
	}
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range e.Values {
		sum += v
	}
	if math.Abs(sum-trace) > 1e-9 {
		t.Fatalf("Σλ = %g, trace = %g", sum, trace)
	}
}
