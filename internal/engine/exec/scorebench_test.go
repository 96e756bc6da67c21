// The scoring UDFs live above this package, like the aggregate UDFs of
// aggargs_test.go, so what sizes the scan → argument plan → float body
// path with the paper's three scoring statements is an external test.
package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	statsudf "repro"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
)

// scoreDB loads X(i, X1..Xd, Y) with n rows into a fresh on-disk
// database and builds and stores a regression, a PCA and a K-means
// model with k components; it returns the database and X1..Xd.
func scoreDB(tb testing.TB, n, dims, k, partitions int) (*statsudf.DB, []string) {
	return scoreDBIn(tb, tb.TempDir(), n, dims, k, partitions)
}

// scoreDBIn is scoreDB with the database under dir, in memory for "".
func scoreDBIn(tb testing.TB, dir string, n, dims, k, partitions int) (*statsudf.DB, []string) {
	tb.Helper()
	d, err := statsudf.Open(statsudf.Options{Dir: dir, Partitions: partitions})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	beta := make([]float64, dims)
	for a := range beta {
		beta[a] = float64(a%5) - 2
	}
	if err := d.GenerateRegression("X", statsudf.MixtureConfig{N: n, D: dims, K: k, Seed: 23}, 1, beta, 0.5); err != nil {
		tb.Fatal(err)
	}
	cols := statsudf.DimColumns(dims)
	reg, err := d.LinearRegression("X", cols, "Y")
	if err != nil {
		tb.Fatal(err)
	}
	pca, err := d.PCA("X", cols, k, statsudf.CovarianceBasis)
	if err != nil {
		tb.Fatal(err)
	}
	km, err := d.KMeans("X", cols, k, statsudf.KMeansOptions{MaxIters: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for _, err := range []error{d.StoreRegression("BETA", reg), d.StorePCA("MU", "LAMBDA", pca), d.StoreKMeans("C", "R", "W", km)} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return d, cols
}

// scoreStatements prepares §3.5's three one-scan scoring statements over
// scoreDB's tables and models.
func scoreStatements(tb testing.TB, n, dims, k, partitions int) map[string]scoreStmt {
	tb.Helper()
	d, cols := scoreDB(tb, n, dims, k, partitions)
	out := map[string]scoreStmt{}
	for name, sql := range map[string]string{
		"regression": sqlgen.RegScoreUDF("X", "BETA", "i", cols),
		"pca":        sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", cols, k),
		"kmeans":     sqlgen.ClusterScoreUDF("X", "C", "i", cols, k),
	} {
		out[name] = prepare(tb, d, sql)
	}
	return out
}

// scoreStmt is statement text its engine has planned: every execution
// is served from the plan cache.
type scoreStmt struct {
	eng *db.DB
	sql string
}

func prepare(tb testing.TB, d *statsudf.DB, sql string) scoreStmt {
	tb.Helper()
	p, err := d.Engine().Prepare(sql)
	if err != nil {
		tb.Fatal(err)
	}
	p.Close()
	return scoreStmt{d.Engine(), sql}
}

// scoreOnce runs a scoring statement to a sink that keeps nothing, so
// what is measured is the scan and the calls, not a result set.
func scoreOnce(tb testing.TB, s scoreStmt, wantRows int, args ...sqltypes.Value) {
	res, err := s.eng.QueryContext(context.Background(), s.sql, func(sqltypes.Row) error { return nil }, args...)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Stats.RowsEmitted != int64(wantRows) {
		tb.Fatalf("scored %d rows, want %d", res.Stats.RowsEmitted, wantRows)
	}
}

// BenchmarkScoreStatement sizes the scoring statements: §3.5's three at
// two shapes over 8 192 rows on disk; serve_point's point request — the
// regression statement at d = 32 with WHERE X.i = ?, one row of 128 in
// memory over four partitions; and a tail of k rows, every point scored
// against every centroid.
func BenchmarkScoreStatement(b *testing.B) {
	const n = 8192
	for _, shape := range []struct{ dims, k int }{{8, 8}, {32, 16}} {
		stmts := scoreStatements(b, n, shape.dims, shape.k, 4)
		for _, name := range []string{"regression", "pca", "kmeans"} {
			b.Run(fmt.Sprintf("%s/d=%d/k=%d", name, shape.dims, shape.k), func(b *testing.B) {
				benchScore(b, stmts[name], n, nil)
			})
		}
	}
	b.Run("point/d=32/n=128", func(b *testing.B) {
		const rows = 128
		d, cols := scoreDBIn(b, "", rows, 32, 2, 4)
		p := prepare(b, d, sqlgen.RegScoreUDF("X", "BETA", "i", cols)+" WHERE X.i = ?")
		benchScore(b, p, 1, func(i int) []sqltypes.Value { return []sqltypes.Value{sqltypes.NewBigInt(int64(i*37) % rows)} })
	})
	b.Run("multitail/d=8/k=8", func(b *testing.B) {
		const k = 8
		d, cols := scoreDB(b, n, 8, k, 4)
		sql := "SELECT X.i, C.j, kdistance("
		for _, x := range cols {
			sql += "X." + x + ", "
		}
		for a, x := range cols {
			if a > 0 {
				sql += ", "
			}
			sql += "C." + x
		}
		benchScore(b, prepare(b, d, sql+") FROM X CROSS JOIN C"), n*k, nil)
	})
}

// benchScore times p emitting rows rows per execution, with the
// arguments args gives execution i (none when args is nil), and reports
// the time and allocations per emitted row.
func benchScore(b *testing.B, p scoreStmt, rows int, args func(i int) []sqltypes.Value) {
	if args == nil {
		args = func(int) []sqltypes.Value { return nil }
	}
	scoreOnce(b, p, rows, args(0)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreOnce(b, p, rows, args(i)...)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}

// BenchmarkInsertSelectScore times the K-means scoring statement at
// d = 8, k = 8 as ScoreKMeans runs it, INSERT … SELECT into an on-disk
// output table: the scan, the nine scalar UDF calls per row, and the
// bulk load behind the statement's lock.
func BenchmarkInsertSelectScore(b *testing.B) {
	const n, dims, k = 8192, 8, 8
	d, cols := scoreDB(b, n, dims, k, 4)
	if _, err := d.ScoreKMeans("X", "i", cols, "C", "SK", k); err != nil {
		b.Fatal(err)
	}
	sql := "INSERT INTO SK " + sqlgen.ClusterScoreUDF("X", "C", "i", cols, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Exec(sql)
		if err != nil {
			b.Fatal(err)
		}
		if res.Affected != n {
			b.Fatalf("scored %d rows, want %d", res.Affected, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// TestScalarCallDoesNotAllocatePerRow scans one partition of 2 000 and
// one of 16 000 rows with the K-means scoring statement at d = 8, k = 8
// (nine scalar UDF calls and 136 arguments per row): the argument plans
// and the float scratch are the worker's and the model tail is bound
// once, so a statement allocates the same whatever it scans.
func TestScalarCallDoesNotAllocatePerRow(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector (sync.Pool drops items)")
	}
	allocs := func(n int) float64 {
		p := scoreStatements(t, n, 8, 8, 1)["kmeans"]
		return testing.AllocsPerRun(5, func() { scoreOnce(t, p, n) })
	}
	small, large := allocs(2000), allocs(16000)
	// The slack covers pool refills after a GC, not rows: one allocation
	// per row would be 14 000 apart.
	if large > small+50 {
		t.Fatalf("%v allocations over 16 000 rows, %v over 2 000", large, small)
	}
	t.Logf("allocations per statement: %v at 2 000 rows, %v at 16 000: 0 per row", small, large)
}
