package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
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
// VARCHAR, w DOUBLE) with NULL lanes, numeric-looking strings, a BIGINT
// beyond 2⁵³ and NaNs, in-memory or on-disk depending on dir.
func mixedTable(t *testing.T, name, dir string, nparts, n int) *storage.Table {
	t.Helper()
	return mixedTableWrittenAfterBuild(t, name, dir, nparts, n, n)
}

// chunkedRows is chunkedTable's row count over nparts partitions.
func chunkedRows(nparts int) int { return nparts * (2*storage.ChunkRows + 21) }

// chunkedTable is mixedTable with every partition holding two whole
// sealed chunks, written in the first commit, and a 21-row tail from a
// second insert; in memory the same rows in the same order. NULLs, NaNs
// and the wide BIGINT fall on both sides of the seal.
func chunkedTable(t *testing.T, name, dir string, nparts int) *storage.Table {
	t.Helper()
	tab := mixedTableWrittenAfterBuild(t, name, dir, nparts, nparts*2*storage.ChunkRows, chunkedRows(nparts))
	for _, si := range tab.Segments() {
		if si.Rows != 2*storage.ChunkRows || si.TailRows != 21 {
			t.Fatalf("chunked fixture: partition %+v, want two whole chunks and a 21-row tail", si)
		}
	}
	return tab
}

// mixedTableWrittenAfterBuild is mixedTable with the same n rows
// arriving in two inserts and every row log sealed between them, so
// every partition holds sealed rows and a tail when the first query
// runs.
func mixedTableWrittenAfterBuild(t *testing.T, name, dir string, nparts, built, n int) *storage.Table {
	t.Helper()
	schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a"), dcol("b"), icol("j"), vcol("s"), dcol("w")}}
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
			sqltypes.NewDouble(rng.Float64() - 0.25),
		}
		if i%5 == 0 {
			r[1] = sqltypes.Null
		}
		if i%11 == 0 {
			r[0] = sqltypes.Null
		}
		if i%29 == 7 {
			r[2] = sqltypes.NewBigInt(1<<53 + 1) // a float rounds it
		}
		if i%23 == 5 {
			r[4] = sqltypes.NewDouble(math.NaN())
		}
		rows[i] = r
	}
	if err := tab.Insert(rows[:built]...); err != nil {
		t.Fatal(err)
	}
	if built < n {
		if err := tab.EnsureSegments(); err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows[built:]...); err != nil {
			t.Fatal(err)
		}
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

// twinTables returns the table a row arm reads and the on-disk table a
// block arm reads, both holding chunkedTable's rows: for layout "disk"
// one table, for "mem" an in-memory table and its on-disk twin.
func twinTables(t *testing.T, layout string, nparts int) (row, block *storage.Table) {
	block = chunkedTable(t, "x", t.TempDir(), nparts)
	if layout == "disk" {
		return block, block
	}
	return chunkedTable(t, "x", "", nparts), block
}

// tableNLQ plans one summary scan and runs it once.
func tableNLQ(tab *storage.Table, cols []int, mt core.MatrixType, columnar bool) ([]*core.NLQ, int64, error) {
	scan, err := PrepareTableNLQ(tab, cols, mt, 0, columnar)
	if err != nil {
		return nil, 0, err
	}
	parts := make([]*core.NLQ, tab.Partitions())
	seen, err := scan.Read(context.Background(), nil, parts)
	return parts, seen, err
}

// tableNLQFrom is tableNLQ resumed after row from of every partition,
// returning the marks the read left and the UDF calls it counted.
func tableNLQFrom(t *testing.T, tab *storage.Table, cols []int, mt core.MatrixType, columnar bool, from int64) ([]*core.NLQ, []storage.Mark, int64) {
	t.Helper()
	scan, err := PrepareTableNLQ(tab, cols, mt, 0, columnar)
	if err != nil {
		t.Fatal(err)
	}
	marks := make([]storage.Mark, tab.Partitions())
	for p := range marks {
		marks[p].Rows = from
	}
	parts := make([]*core.NLQ, tab.Partitions())
	before := obs.UDFCalls.Value()
	if _, err := scan.Read(context.Background(), marks, parts); err != nil {
		t.Fatal(err)
	}
	return parts, marks, obs.UDFCalls.Value() - before
}

// TestComputeTableNLQColumnarBitIdentical: the summary scan from
// blocks equals the same scan with the block source declined, over the
// rows of the same table ("disk") or the resident rows of an in-memory
// twin ("mem"), which is never offered blocks — read whole, and resumed
// from marks inside a sealed chunk and inside the tail, with the same
// marks left and the same UDF calls counted.
func TestComputeTableNLQColumnarBitIdentical(t *testing.T) {
	for _, layout := range []string{"mem", "disk"} {
		t.Run(layout, func(t *testing.T) {
			rowTab, blockTab := twinTables(t, layout, 3)
			for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
				for _, cols := range [][]int{{0, 1}, {1}, {0, 1, 2}, {4, 2}} {
					for _, from := range []int64{0, 1000, 2*storage.ChunkRows + 5} {
						rp, rmarks, rcalls := tableNLQFrom(t, rowTab, cols, mt, false, from)
						cp, cmarks, ccalls := tableNLQFrom(t, blockTab, cols, mt, true, from)
						if rcalls != ccalls || !reflect.DeepEqual(rmarks, cmarks) {
							t.Fatalf("%v cols %v from %d: %d UDF calls and marks %v row-wise, %d and %v block-wise", mt, cols, from, rcalls, rmarks, ccalls, cmarks)
						}
						for p := range rp {
							nlqEqual(t, fmt.Sprintf("%v from %d", mt, from), rp[p], cp[p])
						}
					}
					rp, rseen, err := tableNLQ(rowTab, cols, mt, false)
					if err != nil {
						t.Fatal(err)
					}
					cp, cseen, err := tableNLQ(blockTab, cols, mt, true)
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
	rp, rseen, err := tableNLQ(tab, cols, core.Triangular, false)
	if err != nil {
		t.Fatal(err)
	}
	cp, cseen, err := tableNLQ(tab, cols, core.Triangular, true)
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

// selectBoth runs sql through the Select wrapper over rowCat with the
// block source declined and over colCat with it offered, and returns the
// materialized rows: two cells of the path matrix below.
func selectBoth(t *testing.T, rowCat, colCat memCatalog, sql string) (rowRes, colRes *Result) {
	t.Helper()
	rowEnv := &Env{Catalog: rowCat, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry()}
	colEnv := Env{Catalog: colCat, Funcs: rowEnv.Funcs, Aggs: rowEnv.Aggs, Columnar: true}
	q := pathQuery{sql: sql}
	var err error
	calls := obs.UDFCalls.Value()
	if rowRes, err = pathSelect(t, rowEnv, q); err != nil {
		t.Fatalf("row mode %q: %v", sql, err)
	}
	calls = 2*obs.UDFCalls.Value() - calls
	if colRes, err = pathSelect(t, &colEnv, q); err != nil {
		t.Fatalf("columnar mode %q: %v", sql, err)
	}
	if got := obs.UDFCalls.Value(); got != calls {
		t.Fatalf("%q: the columnar mode counted %d UDF calls more than the row mode", sql, got-calls)
	}
	return rowRes, colRes
}

// pathQuery is one statement of the path matrix: sql with literals,
// and optionally the same statement with some literals as `?` slots.
type pathQuery struct {
	sql   string
	param string
	args  []sqltypes.Value
}

// The four ways a SELECT reaches the scan operator. Each returns the
// materialized result, or (nil, nil) when the path does not apply to q.
var selectPaths = []struct {
	name string
	run  func(t *testing.T, env *Env, q pathQuery) (*Result, error)
}{
	{"select", pathSelect},
	{"prepared-literals", func(t *testing.T, env *Env, q pathQuery) (*Result, error) {
		p, err := PrepareSelect(sel(t, q.sql), env)
		if err != nil {
			return nil, err
		}
		// Twice: the second execution runs on pooled worker sets.
		if _, err := p.Run(context.Background(), nil, nil); err != nil {
			return nil, err
		}
		return p.Run(context.Background(), nil, nil)
	}},
	{"prepared-params", func(t *testing.T, env *Env, q pathQuery) (*Result, error) {
		if q.param == "" {
			return nil, nil
		}
		p, err := PrepareSelect(sel(t, q.param), env)
		if err != nil {
			return nil, err
		}
		if _, err := p.Run(context.Background(), q.args, nil); err != nil {
			return nil, err
		}
		return p.Run(context.Background(), q.args, nil)
	}},
	{"stream", func(t *testing.T, env *Env, q pathQuery) (*Result, error) {
		// An ORDER BY/LIMIT plan replays its materialized rows in order.
		col := &collector{}
		res, err := selectStream(context.Background(), sel(t, q.sql), env, func(r sqltypes.Row) error {
			_, err := col.add([]sqltypes.Row{r})
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Rows = col.rows
		return res, nil
	}},
}

func pathSelect(t *testing.T, env *Env, q pathQuery) (*Result, error) {
	return Select(context.Background(), sel(t, q.sql), env)
}

// canonRows renders every value with its type and exact bits, so equal
// strings mean bit-identical rows; sorted unless the order is part of
// the result.
func canonRows(rows []sqltypes.Row, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			if f, ok := v.Float(); ok && v.Type() == sqltypes.TypeDouble {
				fmt.Fprintf(&b, "D%016x|", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%v:%s|", v.Type(), v)
			}
		}
		out[i] = b.String()
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

var projectionQueries = []string{
	// ORDER BY pins the result order, so it must be total over
	// the output: a is unique except where it is NULL, and
	// those rows differ in b — without the second key they
	// tie and come out in partition-completion order, which
	// differs between the two paths.
	"SELECT a, b, a * b + 1 FROM x ORDER BY 1, 2",
	"SELECT a + b FROM x ORDER BY 1",
	"SELECT a, w - b, w * 2 FROM x WHERE a IS NOT NULL ORDER BY 1",
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

func big(n int64) sqltypes.Value { return sqltypes.NewBigInt(n) }

// pathQueries are the path matrix's statements besides
// projectionQueries.
var pathQueries = []pathQuery{
	{sql: "SELECT a, b, a * b + 1 FROM x ORDER BY 1, 2", param: "SELECT a, b, a * b + ? FROM x ORDER BY 1, 2", args: []sqltypes.Value{big(1)}},
	{sql: "SELECT a FROM x WHERE b > 0 AND a < 300 ORDER BY 1", param: "SELECT a FROM x WHERE b > ? AND a < ? ORDER BY 1", args: []sqltypes.Value{big(0), big(300)}},
	{sql: "SELECT a / 2.5, a % 7.5 FROM x ORDER BY 1", param: "SELECT a / ?, a % ? FROM x ORDER BY 1", args: []sqltypes.Value{sqltypes.NewDouble(2.5), sqltypes.NewDouble(7.5)}},
	// Join-tail scoring: the model table is filtered down to one row
	// per alias before the product is formed.
	{sql: "SELECT a * m1.v + b * m2.v FROM x CROSS JOIN m m1 CROSS JOIN m m2 WHERE m1.j = 1 AND m2.j = 2",
		param: "SELECT a * m1.v + b * m2.v FROM x CROSS JOIN m m1 CROSS JOIN m m2 WHERE m1.j = ? AND m2.j = ?", args: []sqltypes.Value{big(1), big(2)}},
	{sql: "SELECT x.j, a * m.v FROM x CROSS JOIN m WHERE m.j = 3 AND x.j = 5",
		param: "SELECT x.j, a * m.v FROM x CROSS JOIN m WHERE m.j = ? AND x.j = ?", args: []sqltypes.Value{big(3), big(5)}},
	// Aggregates.
	{sql: "SELECT sum(a), min(b), max(b), count(*) FROM x WHERE b > 0", param: "SELECT sum(a), min(b), max(b), count(*) FROM x WHERE b > ?", args: []sqltypes.Value{big(0)}},
	{sql: "SELECT j, count(*), sum(a), avg(b) FROM x GROUP BY j"},
	{sql: "SELECT j, sum(a * 2) FROM x GROUP BY j HAVING count(*) > 30", param: "SELECT j, sum(a * ?) FROM x GROUP BY j HAVING count(*) > ?", args: []sqltypes.Value{big(2), big(30)}},
	{sql: "SELECT sum(a * 2), sum(a * 3) FROM x", param: "SELECT sum(a * ?), sum(a * ?) FROM x", args: []sqltypes.Value{big(2), big(3)}},
	{sql: "SELECT count(DISTINCT j), count(DISTINCT s) FROM x"},
	{sql: "SELECT sum(w), count(w), sum(j) FROM x"},
	{sql: "SELECT sum(x.a * m.v) FROM x CROSS JOIN m WHERE m.j < 3"},
	// ORDER BY keys outside the output, and LIMIT.
	{sql: "SELECT a FROM x WHERE a IS NOT NULL ORDER BY b DESC, a LIMIT 7"},
	{sql: "SELECT a FROM x WHERE a < 50 ORDER BY b * 2, a", param: "SELECT a FROM x WHERE a < ? ORDER BY b * ?, a", args: []sqltypes.Value{big(50), big(2)}},
	{sql: "SELECT j FROM x GROUP BY j ORDER BY sum(a) DESC LIMIT 3"},
	{sql: "SELECT 1 + 2, 'k'", param: "SELECT ? + 2, 'k'", args: []sqltypes.Value{big(1)}},
}

// TestSelectPathMatrix runs every statement through every way of
// reaching the scan operator, over the row source, an in-memory twin,
// the block source over whole sealed chunks and a tail, and the block
// source over a table sealed part-way, and demands bit-identical rows,
// identical scan accounting and the same UDF calls from all of them.
func TestSelectPathMatrix(t *testing.T) {
	queries := append([]pathQuery(nil), pathQueries...)
	for _, sql := range projectionQueries {
		queries = append(queries, pathQuery{sql: sql})
	}

	const nparts = 3
	n := chunkedRows(nparts)
	model := func() *storage.Table {
		return newTable(t, "m", []sqltypes.Column{icol("j"), dcol("v")},
			sqltypes.Row{big(1), sqltypes.NewDouble(0.5)}, sqltypes.Row{big(2), sqltypes.NewDouble(-1.25)}, sqltypes.Row{big(3), sqltypes.NewDouble(3)})
	}
	env := func(x *storage.Table, columnar bool) *Env {
		return &Env{Catalog: memCatalog{"x": x, "m": model()}, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: columnar}
	}
	fixed := func(e *Env) func() *Env { return func() *Env { return e } }
	// A new table per statement.
	written := func() *Env {
		return env(mixedTableWrittenAfterBuild(t, "x", t.TempDir(), nparts, n/2, n), true)
	}
	modes := []struct {
		name string
		env  func() *Env
	}{
		{"row", fixed(env(chunkedTable(t, "x", t.TempDir(), nparts), false))},
		{"mem", fixed(env(chunkedTable(t, "x", "", nparts), true))},
		{"columnar", fixed(env(chunkedTable(t, "x", t.TempDir(), nparts), true))},
		{"columnar-written", written},
	}
	for _, q := range queries {
		ordered := strings.Contains(q.sql, "ORDER BY")
		ref, err := pathSelect(t, modes[0].env(), q)
		if err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		calls := make([]int64, len(selectPaths)) // by path, the row mode's UDF calls
		for _, m := range modes {
			for k, path := range selectPaths {
				e := m.env()
				before := obs.UDFCalls.Value()
				got, err := path.run(t, e, q)
				if err != nil {
					t.Fatalf("%s/%s %q: %v", m.name, path.name, q.sql, err)
				}
				if got == nil {
					continue
				}
				if c := obs.UDFCalls.Value() - before; m.name == modes[0].name {
					calls[k] = c
				} else if c != calls[k] {
					t.Fatalf("%s/%s %q: %d UDF calls, the row mode %d", m.name, path.name, q.sql, c, calls[k])
				}
				inOrder := ordered && path.name != "stream"
				want, have := canonRows(ref.Rows, inOrder), canonRows(got.Rows, inOrder)
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("%s/%s %q: rows differ from the row-mode Select\nwant %v\n got %v", m.name, path.name, q.sql, want, have)
				}
				if got.Stats.RowsScanned != ref.Stats.RowsScanned || got.Stats.RowsEmitted != ref.Stats.RowsEmitted ||
					!reflect.DeepEqual(got.Stats.PartitionRows, ref.Stats.PartitionRows) {
					t.Fatalf("%s/%s %q: scanned %d %v emitted %d, want %d %v %d", m.name, path.name, q.sql,
						got.Stats.RowsScanned, got.Stats.PartitionRows, got.Stats.RowsEmitted,
						ref.Stats.RowsScanned, ref.Stats.PartitionRows, ref.Stats.RowsEmitted)
				}
			}
		}
	}
	// The written-after-build fixture holds sealed rows and a tail in
	// every partition: a scan offered blocks reads the chunks as blocks
	// and the tail as rows, its spans say block, and it writes nothing.
	wenv := written()
	tab, _ := wenv.Catalog.Table("x")
	before := tab.Segments()
	for _, si := range before {
		if si.Rows == 0 || si.TailRows == 0 {
			t.Fatalf("written-after-build fixture: partition %+v, want sealed rows and a tail", si)
		}
	}
	res, err := pathSelect(t, wenv, pathQuery{sql: "SELECT a + b FROM x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Stats.Root.SpanByName("scan").Children {
		if sp.Source != "block" {
			t.Fatalf("written-after-build fixture: span %s read %q, want block", sp.Name, sp.Source)
		}
	}
	if got := tab.Segments(); !reflect.DeepEqual(got, before) {
		t.Fatalf("written-after-build fixture: segments %v after a block scan, want %v kept", got, before)
	}
}

// TestScanSpanSource: every scan[pN] span names the source the plan
// offered it. A scan with block columns says block for every partition
// — its tail read as rows — counts no fallback and writes nothing,
// after an insert too.
func TestScanSpanSource(t *testing.T) {
	tab := mixedTable(t, "x", t.TempDir(), 3, 90)
	env := &Env{Catalog: memCatalog{"x": tab}, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: true, Workers: 1}
	blockScan := func() *Result {
		t.Helper()
		before := obs.ColumnarFallbacks.Value()
		res, err := Select(context.Background(), sel(t, "SELECT a + b FROM x"), env)
		if err != nil {
			t.Fatal(err)
		}
		if got := obs.ColumnarFallbacks.Value() - before; got != 0 {
			t.Fatalf("a block scan counted %d fallbacks, want 0", got)
		}
		var names, sources []string
		for _, sp := range res.Stats.Root.SpanByName("scan").Children {
			names = append(names, sp.Name)
			sources = append(sources, sp.Source)
		}
		if want := []string{"scan[p0]", "scan[p1]", "scan[p2]"}; !reflect.DeepEqual(names, want) {
			t.Fatalf("scan children = %v, want %v", names, want)
		}
		if want := []string{"block", "block", "block"}; !reflect.DeepEqual(sources, want) {
			t.Fatalf("scan sources = %v, want %v", sources, want)
		}
		return res
	}
	tree := blockScan().Stats.Root.RenderTree()
	before := tab.Segments()
	if err := tab.Insert(sqltypes.Row{sqltypes.NewDouble(1), sqltypes.NewDouble(2), sqltypes.NewBigInt(3), sqltypes.NewVarChar("4"), sqltypes.NewDouble(5)}); err != nil {
		t.Fatal(err)
	}
	if res := blockScan(); res.Stats.RowsScanned != 91 {
		t.Fatalf("block scan after a one-row insert read %d rows, want 91", res.Stats.RowsScanned)
	}
	if segs := tab.Segments(); segs[0].TailRows != before[0].TailRows+1 || segs[0].Rows != before[0].Rows {
		t.Fatalf("a one-row insert left partition 0 at %+v (was %+v)", segs[0], before[0])
	}
	for _, want := range []string{"scan[p0]", "source=block"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("EXPLAIN ANALYZE tree lacks %q:\n%s", want, tree)
		}
	}
	// The row engine reads every partition as rows.
	env.Columnar = false
	res, err := Select(context.Background(), sel(t, "SELECT a + b FROM x"), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Stats.Root.SpanByName("scan").Children {
		if sp.Source != "row" {
			t.Fatalf("row engine span %s has source %q", sp.Name, sp.Source)
		}
	}
	// Under the columnar flag an aggregate that scans float rows is
	// offered blocks; any other counts one fallback at prepare, as a
	// projection does.
	env.Columnar = true
	if err := env.Aggs.Register(fsum{}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]int64{"SELECT fsum(a) FROM x": 0, "SELECT sum(a) FROM x": 1, "SELECT fsum(a) FROM x WHERE b > 0": 1} {
		before := obs.ColumnarFallbacks.Value()
		if _, err := PrepareSelect(sel(t, sql), env); err != nil {
			t.Fatal(err)
		}
		if got := obs.ColumnarFallbacks.Value() - before; got != want {
			t.Fatalf("preparing %s under Columnar counted %d fallbacks, want %d", sql, got, want)
		}
	}
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

// TestColumnarProjectionMatchesRow: projections from blocks
// equal the row path's over the same table ("disk") or an in-memory twin
// ("mem").
func TestColumnarProjectionMatchesRow(t *testing.T) {
	for _, layout := range []string{"mem", "disk"} {
		t.Run(layout, func(t *testing.T) {
			rowTab, blockTab := twinTables(t, layout, 3)
			for _, q := range projectionQueries {
				r, c := selectBoth(t, memCatalog{"x": rowTab}, memCatalog{"x": blockTab}, q)
				resultsEqual(t, q, r, c)
			}
		})
	}
}

func TestColumnarProjectionCountsWork(t *testing.T) {
	cat := memCatalog{}
	cat["x"] = chunkedTable(t, "x", t.TempDir(), 2)
	blocks, vops, falls := obs.ColumnarBlocksScanned.Value(), obs.ColumnarVectorOps.Value(), obs.ColumnarFallbacks.Value()
	if _, c := selectBoth(t, cat, cat, "SELECT a * 2 FROM x WHERE b > 0 ORDER BY 1"); len(c.Rows) == 0 {
		t.Fatal("no rows selected")
	}
	if obs.ColumnarBlocksScanned.Value() == blocks {
		t.Fatal("block counter did not move")
	}
	if obs.ColumnarVectorOps.Value() == vops {
		t.Fatal("vector-ops counter did not move")
	}
	falls2 := obs.ColumnarFallbacks.Value()
	if _, c := selectBoth(t, cat, cat, "SELECT power(a, 2) FROM x ORDER BY 1"); len(c.Rows) == 0 {
		t.Fatal("no rows selected")
	}
	if obs.ColumnarFallbacks.Value() == falls2 {
		t.Fatal("fallback counter did not move for an unsupported shape")
	}
	_ = falls
}

// A partition that never received a row has no chunks and an empty
// row log; its block scan must succeed empty rather than count a
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
	r, c := selectBoth(t, cat, cat, "SELECT a + b FROM sparse ORDER BY 1")
	resultsEqual(t, "sparse", r, c)
	if got := obs.ColumnarFallbacks.Value(); got != before {
		t.Fatalf("empty partitions counted %d fallback(s)", got-before)
	}
}

func TestColumnarDivisionByZeroMatchesRow(t *testing.T) {
	cat := memCatalog{}
	schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a")}}
	tab, err := storage.NewTable("z", schema, t.TempDir(), 2)
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

// TestBlockProjectionCountsEmittedRows: the block consumer counts what
// it emitted once per block, and Stats.RowsEmitted is still exactly the
// number of rows the sink accepted — when every row is accepted and
// when the sink starts refusing in the middle of a block.
func TestBlockProjectionCountsEmittedRows(t *testing.T) {
	const n = 2*4096 + 500 // per partition: two full blocks and a short one
	tab := mixedTable(t, "x", t.TempDir(), 2, 2*n)
	env := &Env{Catalog: memCatalog{"x": tab}, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: true}
	p, err := PrepareSelect(sel(t, "SELECT a * 2 FROM x WHERE b > 0"), env)
	if err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("sink full")
	for _, limit := range []int64{math.MaxInt64, 4096 + 77, 1, 0} {
		var calls, accepted atomic.Int64
		res, err := p.Run(context.Background(), nil, func(sqltypes.Row) error {
			if calls.Add(1) > limit {
				return errFull
			}
			accepted.Add(1)
			return nil
		})
		st := res.Stats
		if limit == math.MaxInt64 {
			if err != nil {
				t.Fatal(err)
			}
			if accepted.Load() < 4096 {
				t.Fatalf("only %d rows pass the filter; the fixture should fill whole blocks", accepted.Load())
			}
		} else if !errors.Is(err, errFull) {
			t.Fatalf("limit %d: err = %v, want the sink's", limit, err)
		}
		for _, sp := range st.Root.SpanByName("scan").Children {
			if sp.Source != "block" {
				t.Fatalf("limit %d: %s ran from the %s source", limit, sp.Name, sp.Source)
			}
		}
		if st.RowsEmitted != accepted.Load() {
			t.Fatalf("limit %d: RowsEmitted = %d, the sink accepted %d", limit, st.RowsEmitted, accepted.Load())
		}
	}
}
