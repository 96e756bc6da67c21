package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

func vcol(n string) sqltypes.Column { return sqltypes.Column{Name: n, Type: sqltypes.TypeVarChar} }

// mixedTable builds a table over (a DOUBLE, b DOUBLE, j BIGINT, s
// VARCHAR) with NULL lanes and numeric-looking strings, in-memory or
// on-disk depending on dir.
func mixedTable(t *testing.T, name, dir string, nparts, n int) *storage.Table {
	t.Helper()
	schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a"), dcol("b"), icol("j"), vcol("s")}}
	tab, err := storage.NewTable(name, schema, dir, nparts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		r := sqltypes.Row{
			sqltypes.NewDouble(float64(i) + rng.Float64()),
			sqltypes.NewDouble(rng.Float64()*100 - 50),
			sqltypes.NewBigInt(int64(i % 13)),
			sqltypes.NewVarChar("3.25"), // parses as a number on the row path
		}
		if i%5 == 0 {
			r[1] = sqltypes.Null
		}
		if i%11 == 0 {
			r[0] = sqltypes.Null
		}
		rows[i] = r
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

func nlqEqual(t *testing.T, name string, row, col *core.NLQ) {
	t.Helper()
	if row == nil || col == nil {
		if (row == nil) != (col == nil) {
			t.Fatalf("%s: one partial is nil", name)
		}
		return
	}
	if math.Float64bits(row.N) != math.Float64bits(col.N) {
		t.Fatalf("%s: N %v vs %v", name, row.N, col.N)
	}
	for i := range row.L {
		if math.Float64bits(row.L[i]) != math.Float64bits(col.L[i]) ||
			math.Float64bits(row.Min[i]) != math.Float64bits(col.Min[i]) ||
			math.Float64bits(row.Max[i]) != math.Float64bits(col.Max[i]) {
			t.Fatalf("%s: L/Min/Max[%d] differ", name, i)
		}
	}
	for i := range row.Q {
		if math.Float64bits(row.Q[i]) != math.Float64bits(col.Q[i]) {
			t.Fatalf("%s: Q[%d] %v vs %v", name, i, row.Q[i], col.Q[i])
		}
	}
}

func TestComputeTableNLQColumnarBitIdentical(t *testing.T) {
	for _, layout := range []string{"mem", "disk"} {
		t.Run(layout, func(t *testing.T) {
			dir := ""
			if layout == "disk" {
				dir = t.TempDir()
			}
			tab := mixedTable(t, "x", dir, 3, 700)
			for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
				for _, cols := range [][]int{{0, 1}, {1}, {0, 1, 2}} {
					rp, rseen, err := ComputeTableNLQ(context.Background(), tab, cols, mt, 0, false)
					if err != nil {
						t.Fatal(err)
					}
					cp, cseen, err := ComputeTableNLQ(context.Background(), tab, cols, mt, 0, true)
					if err != nil {
						t.Fatal(err)
					}
					if rseen != cseen {
						t.Fatalf("%v cols %v: seen %d row-wise, %d block-wise", mt, cols, rseen, cseen)
					}
					for p := range rp {
						nlqEqual(t, mt.String(), rp[p], cp[p])
					}
				}
			}
		})
	}
}

// A selected VARCHAR column disqualifies the block path — its values
// parse as numbers row-wise but carry no block operands — and the
// columnar call must fall back with identical results.
func TestComputeTableNLQVarcharFallsBack(t *testing.T) {
	tab := mixedTable(t, "x", t.TempDir(), 2, 120)
	cols := []int{0, 3}
	before := obs.ColumnarFallbacks.Value()
	rp, rseen, err := ComputeTableNLQ(context.Background(), tab, cols, core.Triangular, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cp, cseen, err := ComputeTableNLQ(context.Background(), tab, cols, core.Triangular, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ColumnarFallbacks.Value() == before {
		t.Fatal("varchar scan did not count a fallback")
	}
	if rseen != cseen {
		t.Fatalf("seen %d vs %d", rseen, cseen)
	}
	for p := range rp {
		nlqEqual(t, "varchar", rp[p], cp[p])
	}
	// The row path folds the parseable string in; make sure the data
	// actually exercised that (n > 0 with the varchar column selected).
	if rp[0].N == 0 {
		t.Fatal("test table contributed no complete points")
	}
}

// selectBoth runs sql in both modes and returns the materialized rows.
func selectBoth(t *testing.T, cat memCatalog, sql string) (rowRes, colRes *Result) {
	t.Helper()
	rowEnv := &Env{Catalog: cat, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry()}
	colEnv := *rowEnv
	colEnv.Columnar = true
	var err error
	rowRes, err = Select(context.Background(), sel(t, sql), rowEnv)
	if err != nil {
		t.Fatalf("row mode %q: %v", sql, err)
	}
	colRes, err = Select(context.Background(), sel(t, sql), &colEnv)
	if err != nil {
		t.Fatalf("columnar mode %q: %v", sql, err)
	}
	return rowRes, colRes
}

func resultsEqual(t *testing.T, sql string, a, b *Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%q: %d rows vs %d", sql, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			va, vb := a.Rows[i][c], b.Rows[i][c]
			if va.IsNull() != vb.IsNull() {
				t.Fatalf("%q row %d col %d: null %v vs %v", sql, i, c, va.IsNull(), vb.IsNull())
			}
			if va.IsNull() {
				continue
			}
			fa, _ := va.Float()
			fb, _ := vb.Float()
			if math.Float64bits(fa) != math.Float64bits(fb) {
				t.Fatalf("%q row %d col %d: %v vs %v", sql, i, c, va, vb)
			}
		}
	}
}

func TestColumnarProjectionMatchesRow(t *testing.T) {
	for _, layout := range []string{"mem", "disk"} {
		t.Run(layout, func(t *testing.T) {
			dir := ""
			if layout == "disk" {
				dir = t.TempDir()
			}
			cat := memCatalog{}
			cat["x"] = mixedTable(t, "x", dir, 3, 400)
			queries := []string{
				// ORDER BY pins the result order, so it must be total over
				// the output: a is unique except where it is NULL, and
				// those rows differ in b — without the second key they
				// tie and come out in partition-completion order, which
				// differs between the two paths.
				"SELECT a, b, a * b + 1 FROM x ORDER BY 1, 2",
				"SELECT a + b FROM x ORDER BY 1",
				"SELECT a FROM x WHERE b > 0 AND a < 300 ORDER BY 1",
				"SELECT a, -b FROM x WHERE a IS NOT NULL ORDER BY 1",
				"SELECT a FROM x WHERE b IS NULL ORDER BY 1",
				"SELECT a / 2.5, a % 7.5 FROM x ORDER BY 1",
				// Guarded division: zero-lanes are masked off by the WHERE.
				"SELECT 10.0 / b FROM x WHERE b <> 0 ORDER BY 1",
				// Fallback shapes must stay correct under the flag.
				"SELECT power(a, 2) FROM x ORDER BY 1",
				"SELECT a, s FROM x ORDER BY 1",
				"SELECT j + 1 FROM x ORDER BY 1, a",
			}
			for _, q := range queries {
				r, c := selectBoth(t, cat, q)
				resultsEqual(t, q, r, c)
			}
		})
	}
}

func TestColumnarProjectionCountsWork(t *testing.T) {
	cat := memCatalog{}
	cat["x"] = mixedTable(t, "x", t.TempDir(), 2, 300)
	blocks, vops, falls := obs.ColumnarBlocksScanned.Value(), obs.ColumnarVectorOps.Value(), obs.ColumnarFallbacks.Value()
	if _, c := selectBoth(t, cat, "SELECT a * 2 FROM x WHERE b > 0 ORDER BY 1"); len(c.Rows) == 0 {
		t.Fatal("no rows selected")
	}
	if obs.ColumnarBlocksScanned.Value() == blocks {
		t.Fatal("block counter did not move")
	}
	if obs.ColumnarVectorOps.Value() == vops {
		t.Fatal("vector-ops counter did not move")
	}
	falls2 := obs.ColumnarFallbacks.Value()
	if _, c := selectBoth(t, cat, "SELECT power(a, 2) FROM x ORDER BY 1"); len(c.Rows) == 0 {
		t.Fatal("no rows selected")
	}
	if obs.ColumnarFallbacks.Value() == falls2 {
		t.Fatal("fallback counter did not move for an unsupported shape")
	}
	_ = falls
}

// A partition that never received a row has no segment file on disk;
// its block scan must succeed empty rather than count a stale
// fallback.
func TestColumnarEmptyPartitionIsNotAFallback(t *testing.T) {
	cat := memCatalog{}
	schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a"), dcol("b")}}
	tab, err := storage.NewTable("sparse", schema, t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer rows than partitions guarantees empty partitions.
	if err := tab.Insert(
		sqltypes.Row{sqltypes.NewDouble(1), sqltypes.NewDouble(2)},
		sqltypes.Row{sqltypes.NewDouble(3), sqltypes.NewDouble(4)},
		sqltypes.Row{sqltypes.NewDouble(5), sqltypes.NewDouble(6)},
	); err != nil {
		t.Fatal(err)
	}
	cat["sparse"] = tab
	before := obs.ColumnarFallbacks.Value()
	r, c := selectBoth(t, cat, "SELECT a + b FROM sparse ORDER BY 1")
	resultsEqual(t, "sparse", r, c)
	if got := obs.ColumnarFallbacks.Value(); got != before {
		t.Fatalf("empty partitions counted %d fallback(s)", got-before)
	}
}

func TestColumnarDivisionByZeroMatchesRow(t *testing.T) {
	cat := memCatalog{}
	schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a")}}
	tab, err := storage.NewTable("z", schema, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(drow(1), drow(0), drow(3)); err != nil {
		t.Fatal(err)
	}
	cat["z"] = tab
	for _, columnar := range []bool{false, true} {
		env := &Env{Catalog: cat, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: columnar}
		_, err := Select(context.Background(), sel(t, "SELECT 1.0 / a FROM z"), env)
		if !errors.Is(err, expr.ErrDivisionByZero) {
			t.Fatalf("columnar=%v: err = %v, want ErrDivisionByZero", columnar, err)
		}
	}
}
