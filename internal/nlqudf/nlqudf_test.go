package nlqudf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
	"repro/internal/sqlgen"
)

// setupData creates an X table with d dims and n rows and returns the
// points for reference computation.
func setupData(t *testing.T, d *db.DB, n, dims int, seed int64) [][]float64 {
	t.Helper()
	if err := Register(d); err != nil {
		t.Fatal(err)
	}
	cols := []sqltypes.Column{{Name: "i", Type: sqltypes.TypeBigInt}}
	for a := 1; a <= dims; a++ {
		cols = append(cols, sqltypes.Column{Name: fmt.Sprintf("X%d", a), Type: sqltypes.TypeDouble})
	}
	tab, err := d.CreateTable("X", &sqltypes.Schema{Columns: cols})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	bl, err := tab.NewBulkLoader()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dims)
		row := make(sqltypes.Row, dims+1)
		row[0] = sqltypes.NewBigInt(int64(i))
		for a := 0; a < dims; a++ {
			x[a] = rng.NormFloat64()*10 + 50
			row[a+1] = sqltypes.NewDouble(x[a])
		}
		pts[i] = x
		if err := bl.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	return pts
}

func nlqClose(t *testing.T, got, want *core.NLQ, tol float64) {
	t.Helper()
	if got.N != want.N || got.D != want.D {
		t.Fatalf("header mismatch: n=%g/%g d=%d/%d", got.N, want.N, got.D, want.D)
	}
	for a := 0; a < want.D; a++ {
		if math.Abs(got.L[a]-want.L[a]) > tol {
			t.Fatalf("L[%d] = %g, want %g", a, got.L[a], want.L[a])
		}
		if math.Abs(got.Min[a]-want.Min[a]) > tol || math.Abs(got.Max[a]-want.Max[a]) > tol {
			t.Fatalf("min/max[%d] mismatch", a)
		}
		for b := 0; b < want.D; b++ {
			if math.Abs(got.QAt(a, b)-want.QAt(a, b)) > tol {
				t.Fatalf("Q[%d][%d] = %g, want %g", a, b, got.QAt(a, b), want.QAt(a, b))
			}
		}
	}
}

func TestUDFMatchesDirectComputation(t *testing.T) {
	const n, dims = 500, 6
	for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
		for _, style := range []sqlgen.PassStyle{sqlgen.ListStyle, sqlgen.StringStyle} {
			t.Run(fmt.Sprintf("%v/%v", mt, style), func(t *testing.T) {
				d := db.Open(db.Options{Partitions: 5})
				pts := setupData(t, d, n, dims, 42)
				want := core.MustNLQ(dims, mt)
				for _, x := range pts {
					want.Update(x)
				}
				sql := sqlgen.NLQUDFQuery("X", sqlgen.Dims(dims), mt, style)
				res, err := d.Exec(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				v, err := res.Value()
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Unpack(v.Str())
				if err != nil {
					t.Fatal(err)
				}
				// String style loses nothing: 17 significant digits.
				nlqClose(t, got, want, 1e-6)
			})
		}
	}
}

func TestUDFMatchesSQLQuery(t *testing.T) {
	const n, dims = 300, 4
	d := db.Open(db.Options{Partitions: 3})
	setupData(t, d, n, dims, 7)

	// Run the paper's long SQL query.
	sqlRes, err := d.Exec(sqlgen.NLQQuery("X", sqlgen.Dims(dims), core.Triangular))
	if err != nil {
		t.Fatal(err)
	}
	row := sqlRes.Rows[0]
	// Run the UDF.
	udfRes, err := d.Exec(sqlgen.NLQUDFQuery("X", sqlgen.Dims(dims), core.Triangular, sqlgen.ListStyle))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := udfRes.Value()
	got, err := core.Unpack(v.Str())
	if err != nil {
		t.Fatal(err)
	}
	// Compare: row = [n, L1..Ld, Q row-major with NULL padding].
	if nv := row[0].MustFloat(); nv != got.N {
		t.Fatalf("n: sql=%g udf=%g", nv, got.N)
	}
	for a := 0; a < dims; a++ {
		if lv := row[1+a].MustFloat(); math.Abs(lv-got.L[a]) > 1e-6 {
			t.Fatalf("L[%d]: sql=%g udf=%g", a, lv, got.L[a])
		}
		for c := 0; c <= a; c++ {
			qv := row[1+dims+a*dims+c].MustFloat()
			if math.Abs(qv-got.QAt(a, c)) > 1e-5 {
				t.Fatalf("Q[%d][%d]: sql=%g udf=%g", a, c, qv, got.QAt(a, c))
			}
		}
	}
}

func TestUDFGroupBy(t *testing.T) {
	const n, dims, k = 400, 3, 4
	d := db.Open(db.Options{Partitions: 4})
	pts := setupData(t, d, n, dims, 11)

	sql := sqlgen.NLQUDFGroupQuery("X", sqlgen.Dims(dims), core.Diagonal, sqlgen.ListStyle, fmt.Sprintf("i %% %d", k))
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(res.Rows) != k {
		t.Fatalf("got %d groups, want %d", len(res.Rows), k)
	}
	// Reference per-group summaries.
	want := make([]*core.NLQ, k)
	for j := range want {
		want[j] = core.MustNLQ(dims, core.Diagonal)
	}
	for i, x := range pts {
		want[i%k].Update(x)
	}
	for _, row := range res.Rows {
		j := int(row[0].Int())
		got, err := core.Unpack(row[1].Str())
		if err != nil {
			t.Fatal(err)
		}
		nlqClose(t, got, want[j], 1e-6)
	}
}

func TestUDFWithWhereFilter(t *testing.T) {
	const n, dims = 200, 3
	d := db.Open(db.Options{Partitions: 2})
	pts := setupData(t, d, n, dims, 13)
	res, err := d.Exec("SELECT nlq_list(3, 'triang', X1, X2, X3) FROM X WHERE i < 50")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Value()
	got, err := core.Unpack(v.Str())
	if err != nil {
		t.Fatal(err)
	}
	want := core.MustNLQ(dims, core.Triangular)
	for i := 0; i < 50; i++ {
		want.Update(pts[i])
	}
	nlqClose(t, got, want, 1e-6)
}

func TestUDFEmptyInput(t *testing.T) {
	d := db.Open(db.Options{Partitions: 2})
	setupData(t, d, 10, 2, 1)
	res, err := d.Exec("SELECT nlq_list(2, 'full', X1, X2) FROM X WHERE i < 0")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Value()
	if !v.IsNull() {
		t.Fatalf("empty aggregate = %v, want NULL", v)
	}
}

func TestUDFArgumentErrors(t *testing.T) {
	d := db.Open(db.Options{Partitions: 2})
	setupData(t, d, 10, 2, 1)
	bad := []string{
		"SELECT nlq_list(2, 'triang') FROM X",         // too few args at runtime
		"SELECT nlq_list(3, 'triang', X1, X2) FROM X", // d mismatch
		"SELECT nlq_list(2, 'sparse', X1, X2) FROM X", // bad matrix type
		"SELECT nlq_str(2, 'triang', X1, X2) FROM X",  // str style arity
		"SELECT nlq_list(0, 'full', X1, X2) FROM X",   // d out of range
		"SELECT nlq_str(2, 'full', 'zz|1') FROM X",    // unparsable packed
	}
	for _, sql := range bad {
		if _, err := d.Exec(sql); err == nil {
			t.Errorf("%q must fail", sql)
		}
	}
}

// TestHeaderChecksSurviveCaching: (d, mtype) is parsed once and then
// recognised by value, but a row whose header differs is still parsed
// and still rejected — and an equivalent spelling is still accepted.
func TestHeaderChecksSurviveCaching(t *testing.T) {
	agg := nlqAgg{}
	call := func(d sqltypes.Value, mt string, xs ...float64) []sqltypes.Value {
		args := []sqltypes.Value{d, sqltypes.NewVarChar(mt)}
		for _, x := range xs {
			args = append(args, sqltypes.NewDouble(x))
		}
		return args
	}
	two := sqltypes.NewBigInt(2)
	st, err := agg.Init(udf.NewHeap(udf.SegmentSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := range [][]sqltypes.Value{
		call(two, "triang", 1, 2),
		call(two, "triang", 3, 4),                   // the cached pair
		call(two, "TRIANGULAR", 5, 6),               // same header, other spelling
		call(sqltypes.NewDouble(2), "triang", 7, 8), // same d, other type
		call(two, "triang", 9, 10),
	} {
		if err := agg.Accumulate(st, ok); err != nil {
			t.Fatalf("%v: %v", ok, err)
		}
	}
	if n := st.(*nlqState).nlq.N; n != 5 {
		t.Fatalf("accumulated %v rows, want 5", n)
	}
	for _, bad := range [][]sqltypes.Value{
		call(two, "full", 1, 2),
		call(sqltypes.NewBigInt(3), "triang", 1, 2, 3),
		call(sqltypes.Null, "triang", 1, 2),
		call(two, "sparse", 1, 2),
	} {
		if err := agg.Accumulate(st, bad); err == nil {
			t.Fatalf("%v must be rejected after a (2, triang) row", bad)
		}
	}
}

func TestUDFNullRowsSkipped(t *testing.T) {
	d := db.Open(db.Options{Partitions: 2})
	if err := Register(d); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE TABLE N (X1 DOUBLE, X2 DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO N VALUES (1, 2), (NULL, 5), (3, 4)"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT nlq_list(2, 'full', X1, X2) FROM N")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Value()
	got, err := core.Unpack(v.Str())
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 2 || got.L[0] != 4 || got.L[1] != 6 {
		t.Fatalf("NULL row not skipped: %+v", got)
	}
}

func TestBlockedQueryMatchesDirect(t *testing.T) {
	const n, dims, blockD = 150, 10, 4
	d := db.Open(db.Options{Partitions: 3})
	pts := setupData(t, d, n, dims, 17)
	plan, err := core.PlanBlocks(dims, blockD)
	if err != nil {
		t.Fatal(err)
	}
	sql := sqlgen.NLQBlockQuery("X", sqlgen.Dims(dims), plan)
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != plan.Calls() {
		t.Fatalf("result shape %d×%d, want 1×%d", len(res.Rows), len(res.Rows[0]), plan.Calls())
	}
	parts := make([]*core.BlockResult, plan.Calls())
	for i, v := range res.Rows[0] {
		blk, r, err := UnpackBlock(v.Str())
		if err != nil {
			t.Fatal(err)
		}
		if blk != plan.Blocks[i] {
			t.Fatalf("block %d ranges mismatch: %+v vs %+v", i, blk, plan.Blocks[i])
		}
		parts[i] = r
	}
	got, err := plan.Assemble(parts)
	if err != nil {
		t.Fatal(err)
	}
	want := core.MustNLQ(dims, core.Full)
	for _, x := range pts {
		want.Update(x)
	}
	nlqClose(t, got, want, 1e-6)
}

func TestPackBlockRoundTrip(t *testing.T) {
	blk := core.Block{RowLo: 4, RowHi: 8, ColLo: 0, ColHi: 4}
	r := &core.BlockResult{
		N: 3, L: []float64{1, 2, 3, 4}, Min: []float64{0, 0, 0, 0},
		Max: []float64{9, 9, 9, 9}, Q: make([]float64, 16),
	}
	for i := range r.Q {
		r.Q[i] = float64(i) * 1.5
	}
	blk2, r2, err := UnpackBlock(PackBlock(blk, r))
	if err != nil {
		t.Fatal(err)
	}
	if blk2 != blk || r2.N != r.N || len(r2.Q) != 16 || r2.Q[5] != 7.5 {
		t.Fatalf("round trip: %+v %+v", blk2, r2)
	}
	for _, bad := range []string{"", "x;y", "a,b,c,d;1;1;1;1;1", "0,2,0,2;1;1|2;1;2|3;1|2|3|4"} {
		if _, _, err := UnpackBlock(bad); err == nil {
			t.Errorf("UnpackBlock(%q) must fail", bad)
		}
	}
}

func TestHeapChargeIsStatic(t *testing.T) {
	// The UDF charges the heap for MAX_d regardless of the actual d —
	// the paper's "wastes some memory space but does not affect speed".
	a := nlqAgg{}
	h := udf.NewHeap(udf.SegmentSize)
	if _, err := a.Init(h); err != nil {
		t.Fatal(err)
	}
	if h.Used() < 8*core.MaxD*core.MaxD {
		t.Fatalf("heap charge %d too small for static MAX_d allocation", h.Used())
	}
	// A second state cannot fit in the same segment.
	if _, err := a.Init(h); err == nil {
		t.Fatal("two MAX_d states must not fit in one segment")
	}
}

func TestStringStylePacksWithSQLConcat(t *testing.T) {
	// The generated string-style SQL really goes through CAST/concat.
	sql := sqlgen.NLQUDFQuery("X", sqlgen.Dims(2), core.Full, sqlgen.StringStyle)
	if !strings.Contains(sql, "CAST(X1 AS VARCHAR) || '|' || CAST(X2 AS VARCHAR)") {
		t.Fatalf("unexpected string-style SQL: %s", sql)
	}
}

// TestFloatPathReported: the paper's statement — one table, bare DOUBLE
// columns, no WHERE — scans float rows and says so in its scan[pN]
// spans, in sys.spans and in EXPLAIN ANALYZE (the span tree); the same
// statement with a WHERE scans boxed rows and says row.
func TestFloatPathReported(t *testing.T) {
	d := db.Open(db.Options{Partitions: 2, TraceSampleN: 1})
	setupData(t, d, 50, 3, 5)
	for _, c := range []struct{ sql, want, not string }{
		{"SELECT nlq_list(3, 'triang', X1, X2, X3) FROM X", "float", "row"},
		{"SELECT nlq_list(3, 'triang', X1, X2, X3) FROM X WHERE i >= 0", "row", "float"},
	} {
		res, err := d.Exec(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range res.Stats.Root.SpanByName("scan").Children {
			if sp.Source != c.want {
				t.Fatalf("%s: span %s has source %q, want %q", c.sql, sp.Name, sp.Source, c.want)
			}
		}
		tree := res.Stats.Root.RenderTree()
		if !strings.Contains(tree, "source="+c.want) || strings.Contains(tree, "source="+c.not) {
			t.Fatalf("%s: EXPLAIN ANALYZE tree does not say source=%s only:\n%s", c.sql, c.want, tree)
		}
		spans, err := d.Exec("SELECT name, source FROM sys.spans WHERE trace_id = '" + res.Stats.TraceID + "'")
		if err != nil {
			t.Fatal(err)
		}
		scans := 0
		for _, r := range spans.Rows {
			if strings.HasPrefix(r[0].Str(), "scan[p") {
				scans++
				if r[1].Str() != c.want {
					t.Fatalf("%s: sys.spans %s source %q, want %q", c.sql, r[0].Str(), r[1].Str(), c.want)
				}
			}
		}
		if scans != 2 {
			t.Fatalf("%s: sys.spans lists %d partition scans, want 2", c.sql, scans)
		}
	}
}

// TestBoxedFloatBoundary: over a table with a VARCHAR column, NULLs in
// a requested column (those rows are skipped) and in unrequested ones
// (those rows are kept), in memory and on disk, the float-row statement
// — read from segment blocks where the table is on disk, and from float
// rows with the block source declined — the same statement on the boxed
// row path (a residual WHERE), and the summary scan in row and columnar
// mode all produce, byte for byte,
// the packed summary of the boxed Accumulate run over every partition's
// rows and merged in partition order.
func TestBoxedFloatBoundary(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		d := db.Open(db.Options{Partitions: 3, Dir: dir})
		if err := Register(d); err != nil {
			t.Fatal(err)
		}
		tab, err := d.CreateTable("N", sqltypes.MustSchema(
			sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt},
			sqltypes.Column{Name: "tag", Type: sqltypes.TypeVarChar},
			sqltypes.Column{Name: "X1", Type: sqltypes.TypeDouble},
			sqltypes.Column{Name: "X2", Type: sqltypes.TypeDouble},
			sqltypes.Column{Name: "X3", Type: sqltypes.TypeDouble},
		))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		rows := make([]sqltypes.Row, 300)
		for k := range rows {
			r := sqltypes.Row{sqltypes.NewBigInt(int64(k)), sqltypes.NewVarChar(fmt.Sprint("t", k%7)),
				sqltypes.NewDouble(rng.NormFloat64() * 1e3), sqltypes.NewDouble(rng.NormFloat64()), sqltypes.NewDouble(rng.Float64() - 0.5)}
			switch k % 5 {
			case 1:
				r[2] = sqltypes.Null // requested: the row is skipped
			case 2:
				r[3] = sqltypes.Null // unrequested: the row is kept
			case 3:
				r[1], r[0] = sqltypes.Null, sqltypes.Null // unrequested: kept
			}
			rows[k] = r
		}
		if err := tab.Insert(rows...); err != nil {
			t.Fatal(err)
		}

		// The boxed path, by hand.
		agg, _ := d.Aggregates().Lookup("nlq_list")
		var merged udf.State
		for p := 0; p < tab.Partitions(); p++ {
			st, err := agg.Init(udf.NewHeap(udf.SegmentSize))
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.ScanPartition(context.Background(), p, func(r sqltypes.Row) error {
				return agg.Accumulate(st, []sqltypes.Value{sqltypes.NewBigInt(2), sqltypes.NewVarChar("triang"), r[2], r[4]})
			}); err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = st
			} else if err := agg.Merge(merged, st); err != nil {
				t.Fatal(err)
			}
		}
		v, err := agg.Finalize(merged)
		if err != nil {
			t.Fatal(err)
		}
		want := v.Str()
		if s, _ := core.Unpack(want); s.N != 240 {
			t.Fatalf("the boxed reference folded %v rows, want 240", s.N)
		}

		floats := "float" // what the float-row statement reads with blocks offered
		if dir != "" {
			floats = "block"
		}
		for _, c := range []struct {
			sql     string
			sources [2]string // declining blocks, offering them
		}{
			{"SELECT nlq_list(2, 'triang', X1, X3) FROM N", [2]string{"float", floats}},
			{"SELECT nlq_list(2, 'triang', X1, X3) FROM N WHERE 1 = 1", [2]string{"row", "row"}},
		} {
			res, err := d.Exec(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			for arm, res := range []*exec.Result{selectRows(t, d, c.sql), res} {
				if src := res.Stats.Root.SpanByName("scan").SpanByName("scan[p0]").Source; src != c.sources[arm] {
					t.Fatalf("dir %q: %s scanned %s rows, want %s", dir, c.sql, src, c.sources[arm])
				}
				if got := res.Rows[0][0].Str(); got != want {
					t.Fatalf("dir %q: %s from %s = %s\nthe boxed path: %s", dir, c.sql, c.sources[arm], got, want)
				}
			}
		}
		for _, columnar := range []bool{false, true} {
			scan, err := exec.PrepareTableNLQ(tab, []int{2, 4}, core.Triangular, 0, columnar)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*core.NLQ, tab.Partitions())
			if _, err := scan.Read(context.Background(), nil, parts); err != nil {
				t.Fatal(err)
			}
			for _, p := range parts[1:] {
				if err := parts[0].Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			if got := parts[0].Pack(); got != want {
				t.Fatalf("dir %q: the summary scan columnar=%v = %s\nthe boxed path: %s", dir, columnar, got, want)
			}
		}
	}
}

// TestFloatRowShapes: which statement shapes scan float rows — decided
// at prepare from the shape alone — and that every shape's result is
// the one the boxed row path gives.
func TestFloatRowShapes(t *testing.T) {
	d := db.Open(db.Options{Partitions: 2})
	setupData(t, d, 60, 4, 9)
	if _, err := d.Exec("CREATE TABLE M (j BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO M VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, source string }{
		{"SELECT nlq_list(2, 'triang', X1, X2) FROM X", "float"},
		{"SELECT nlq_list(2, 'full', X2, X1), nlq_list(3, 'diag', X1, X3, X4) FROM X", "float"},
		{"SELECT nlq_list(2, 'triang', X1, X2), nlq_list(2, 'full', X2, X1) FROM X", "float"}, // the second reads two runs
		{"SELECT nlq_list(2, 'triang', X1, X1) FROM X", "float"},                              // one column twice
		{"SELECT nlq_list(2, 'triang', X1, 0.5) FROM X", "float"},                             // a numeric literal among the columns
		{"SELECT nlq_list(2, 'triang', i, X1) FROM X", "float"},                               // a BIGINT column widens
		{"SELECT nlq_block(0, 2, 2, 4, X1, X2, X3, X4) FROM X", "float"},                      // an off-diagonal block
		{"SELECT nlq_list(2, 'triang', X1, X2) FROM X WHERE X3 > 50", "row"},                  // a residual WHERE
		{"SELECT i % 3, nlq_list(2, 'triang', X1, X2) FROM X GROUP BY i % 3", "row"},
		{"SELECT count(*), nlq_list(2, 'triang', X1, X2) FROM X", "row"},           // count has no float body
		{"SELECT nlq_list(2, 'triang', X1 + 0, X2) FROM X", "row"},                 // not a bare column
		{"SELECT nlq_list(2, 'triang', X1, NULL) FROM X", "row"},                   // a literal that is not a number
		{"SELECT nlq_str(2, 'triang', CAST(X1 AS VARCHAR) || '|1') FROM X", "row"}, // no float body
		{"SELECT nlq_list(2, 'triang', X1, X2) FROM X, M WHERE M.j = 1", "row"},    // a join
	} {
		res, err := d.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if src := res.Stats.Root.SpanByName("scan").Children[0].Source; src != c.source {
			t.Fatalf("%s: scanned %s rows, want %s", c.sql, src, c.source)
		}
		if c.source != "float" {
			continue
		}
		boxed, err := d.Exec(c.sql + " WHERE 1 = 1")
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range res.Rows[0] {
			if v != boxed.Rows[0][k] {
				t.Fatalf("%s: item %d = %v on float rows, %v on boxed rows", c.sql, k, v, boxed.Rows[0][k])
			}
		}
	}
}
