package statsudf

import (
	"math"
	"testing"
)

func openTest(t *testing.T) *DB {
	t.Helper()
	d, err := Open(Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOpenAndExec(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if _, err := d.Exec("CREATE TABLE t (a DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT sum(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Value()
	if err != nil || v.MustFloat() != 3 {
		t.Fatalf("%v %v", v, err)
	}
}

// TestGenerateAndSummaryMethodsAgree requires the four ways of computing the
// summaries — aggregate UDF with list and string passing, the long SQL
// query, the summary cache — to agree to the last bit on n, L and Q for
// every matrix type: they add the same products in the same
// per-partition order, so anything short of equality is a defect.
func TestGenerateAndSummaryMethodsAgree(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 400, D: 5, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	cols := DimColumns(5)
	for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
		base, err := d.Summary("X", cols, SummaryOptions{Matrix: mt})
		if err != nil {
			t.Fatal(err)
		}
		if base.N != 400 {
			t.Fatalf("%v: n = %g", mt, base.N)
		}
		for _, method := range []SummaryMethod{ViaUDFString, ViaSQL, ViaCache} {
			s, err := d.Summary("X", cols, SummaryOptions{Method: method, Matrix: mt})
			if err != nil {
				t.Fatalf("%v method %v: %v", mt, method, err)
			}
			if s.Type != mt || s.D != base.D || math.Float64bits(s.N) != math.Float64bits(base.N) {
				t.Fatalf("%v method %v: type/d/n = %v/%d/%g", mt, method, s.Type, s.D, s.N)
			}
			for a := range base.L {
				if math.Float64bits(s.L[a]) != math.Float64bits(base.L[a]) {
					t.Fatalf("%v method %v: L[%d] = %v, want %v", mt, method, a, s.L[a], base.L[a])
				}
			}
			for i := range base.Q {
				if math.Float64bits(s.Q[i]) != math.Float64bits(base.Q[i]) {
					t.Fatalf("%v method %v: Q[%d] = %v, want %v", mt, method, i, s.Q[i], base.Q[i])
				}
			}
		}
	}
}

func TestSummaryWhere(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 100, D: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := d.Summary("X", DimColumns(2), SummaryOptions{Where: "i < 10"})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 {
		t.Fatalf("n = %g", s.N)
	}
	if _, err := d.Summary("X", DimColumns(2), SummaryOptions{Where: "i < 0"}); err == nil {
		t.Fatal("empty selection must surface an error")
	}
}

func TestBlockedSummaryHighD(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const dims = MaxD + 16 // forces the blocked path
	if err := d.Generate("X", MixtureConfig{N: 60, D: dims, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	s, err := d.Summary("X", DimColumns(dims), SummaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.D != dims || s.N != 60 {
		t.Fatalf("d=%d n=%g", s.D, s.N)
	}
	// Spot-check against a direct recomputation through SQL sums.
	res, err := d.Exec("SELECT sum(X1), sum(X1*X80) FROM X")
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Rows[0][0].MustFloat()
	q := res.Rows[0][1].MustFloat()
	if math.Abs(s.L[0]-l1) > 1e-6 || math.Abs(s.QAt(0, 79)-q) > 1e-5 {
		t.Fatalf("blocked summary mismatch: %g vs %g, %g vs %g", s.L[0], l1, s.QAt(0, 79), q)
	}
	// SQL/string methods refuse high d.
	if _, err := d.Summary("X", DimColumns(dims), SummaryOptions{Method: ViaSQL}); err == nil {
		t.Fatal("SQL method must reject d > MaxD")
	}
}

func TestGroupedSummary(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 90, D: 3, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	groups, err := d.GroupedSummary("X", DimColumns(3), Diagonal, "i % 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	var total float64
	for _, s := range groups {
		total += s.N
	}
	if total != 90 {
		t.Fatalf("group sizes sum to %g", total)
	}
}

func TestCorrelationFacade(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 500, D: 4, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	m, err := d.Correlation("X", DimColumns(4))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		if math.Abs(m.At(a, a)-1) > 1e-9 {
			t.Fatalf("rho[%d][%d] = %g", a, a, m.At(a, a))
		}
	}
}

func TestLinearRegressionFacade(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	beta := []float64{1.5, -2}
	if err := d.GenerateRegression("XY", MixtureConfig{N: 3000, D: 2, Seed: 5}, 4, beta, 0.2); err != nil {
		t.Fatal(err)
	}
	m, err := d.LinearRegression("XY", DimColumns(2), "Y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta[0]-4) > 0.1 || math.Abs(m.Beta[1]-1.5) > 0.01 || math.Abs(m.Beta[2]+2) > 0.01 {
		t.Fatalf("beta = %v", m.Beta)
	}
	if !m.HasFit || m.R2 < 0.99 {
		t.Fatalf("fit stats: HasFit=%v R²=%g", m.HasFit, m.R2)
	}
}

func TestPCAAndFactorFacade(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 800, D: 6, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	pca, err := d.PCA("X", DimColumns(6), 3, CorrelationBasis)
	if err != nil {
		t.Fatal(err)
	}
	if pca.K != 3 || pca.ExplainedVariance() <= 0 {
		t.Fatalf("pca = %+v", pca)
	}
	fa, err := d.FactorAnalysis("X", DimColumns(6), 2, FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fa.K != 2 {
		t.Fatalf("fa = %+v", fa)
	}
}

func TestClusteringFacade(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 600, D: 3, K: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	km, err := d.KMeans("X", DimColumns(3), 4, KMeansOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wsum float64
	for _, w := range km.W {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", wsum)
	}
	em, err := d.EMCluster("X", DimColumns(3), 4, EMOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if em.K != 4 {
		t.Fatalf("em = %+v", em)
	}
}

func TestSummaryOverView(t *testing.T) {
	// §3.6's scenario: X is a view deriving dimensions from base
	// tables; the one-scan summary UDF runs over it transparently.
	d := openTest(t)
	defer d.Close()
	if _, err := d.Exec("CREATE TABLE raw (i BIGINT, v DOUBLE, kind VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		kind := "a"
		if i%2 == 0 {
			kind = "b"
		}
		sql := "INSERT INTO raw VALUES (" +
			itoa(i) + ", " + ftoa(float64(i)) + ", '" + kind + "')"
		if _, err := d.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Exec(`CREATE VIEW X AS SELECT
		v AS X1,
		v * v AS X2,
		CASE WHEN kind = 'a' THEN 1.0 ELSE 0.0 END AS X3
		FROM raw`); err != nil {
		t.Fatal(err)
	}
	s, err := d.Summary("X", DimColumns(3), SummaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 50 {
		t.Fatalf("n = %g", s.N)
	}
	// L1 = Σi = 1225; L3 = #odd = 25.
	if s.L[0] != 1225 || s.L[2] != 25 {
		t.Fatalf("L = %v", s.L)
	}
	// Models build over view summaries like any other.
	if _, err := BuildCorrelationFrom(s); err != nil {
		t.Fatal(err)
	}
	// The SQL path works over the view too.
	s2, err := d.Summary("X", DimColumns(3), SummaryOptions{Method: ViaSQL})
	if err != nil {
		t.Fatal(err)
	}
	if s2.N != s.N || s2.L[0] != s.L[0] {
		t.Fatalf("SQL-over-view mismatch: %v vs %v", s2.L, s.L)
	}
}

func TestReopenDatabaseDirectory(t *testing.T) {
	// The TWM workflow: one process generates data and stores a model,
	// a later process reopens the directory and scores with it.
	dir := t.TempDir()
	d1, err := Open(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	beta := []float64{2, -1}
	if err := d1.GenerateRegression("X", MixtureConfig{N: 500, D: 2, Seed: 8}, 3, beta, 0.5); err != nil {
		t.Fatal(err)
	}
	m, err := d1.LinearRegression("X", DimColumns(2), "Y")
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.StoreRegression("BETA", m); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	d2, err := Open(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	n, err := d2.ScoreRegression("X", "i", DimColumns(2), "BETA", "OUT")
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("scored %d rows after reopen", n)
	}
	// The summaries over the reattached table match the stored model.
	m2, err := d2.LoadRegression("BETA")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Beta {
		if m.Beta[i] != m2.Beta[i] {
			t.Fatalf("beta changed across processes")
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if _, err := d.Summary("missing", DimColumns(2), SummaryOptions{}); err == nil {
		t.Fatal("missing table must fail")
	}
	if _, err := d.Summary("missing", nil, SummaryOptions{}); err == nil {
		t.Fatal("no columns must fail")
	}
	if err := d.Generate("X", MixtureConfig{N: 10, D: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Correlation("X", []string{"nope"}); err == nil {
		t.Fatal("bad column must fail")
	}
	if _, err := d.KMeans("X", []string{"nope"}, 2, KMeansOptions{}); err == nil {
		t.Fatal("bad column must fail")
	}
}

// TestColSource covers the one table → core.Source adapter every
// client-side model build scans through: it yields the named columns
// in the order asked, once per row, and refuses what it cannot turn
// into points.
func TestColSource(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if err := d.Generate("X", MixtureConfig{N: 50, D: 3, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	src, err := d.columnsSource("X", []string{"X3", "X1"})
	if err != nil {
		t.Fatal(err)
	}
	if src.Dims() != 2 {
		t.Fatalf("dims = %d", src.Dims())
	}
	res, err := d.Exec("SELECT sum(X3), sum(X1) FROM X")
	if err != nil {
		t.Fatal(err)
	}
	var count int
	var sums [2]float64
	if err := src.Scan(func(x []float64) error {
		if len(x) != 2 {
			t.Fatalf("point width %d", len(x))
		}
		count++
		sums[0] += x[0]
		sums[1] += x[1]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("scanned %d points, want 50", count)
	}
	for i, v := range res.Rows[0] {
		if want, _ := v.Float(); math.Abs(sums[i]-want) > 1e-9*math.Abs(want) {
			t.Fatalf("column %d sums to %g, SQL says %g", i, sums[i], want)
		}
	}

	if _, err := d.columnsSource("missing", []string{"X1"}); err == nil {
		t.Fatal("missing table must fail")
	}
	if _, err := d.columnsSource("X", []string{"X1", "X9"}); err == nil {
		t.Fatal("missing column must fail")
	}

	// A NULL dimension or a non-numeric string is a scan error, not a
	// silent zero; a numeric string converts.
	if _, err := d.ExecScript("CREATE TABLE S (a DOUBLE, s VARCHAR); INSERT INTO S VALUES (1, '2.5')"); err != nil {
		t.Fatal(err)
	}
	src, err = d.columnsSource("S", []string{"a", "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Scan(func(x []float64) error {
		if x[0] != 1 || x[1] != 2.5 {
			t.Fatalf("point = %v", x)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"(NULL, '1')", "(1, 'abc')"} {
		if _, err := d.Exec("INSERT INTO S VALUES " + bad); err != nil {
			t.Fatal(err)
		}
		if err := src.Scan(func([]float64) error { return nil }); err == nil {
			t.Fatalf("scan over %s must fail", bad)
		}
		if _, err := d.ExecScript("DROP TABLE S; CREATE TABLE S (a DOUBLE, s VARCHAR)"); err != nil {
			t.Fatal(err)
		}
	}
}
