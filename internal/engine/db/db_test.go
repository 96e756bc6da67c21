package db

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

func openTest(t *testing.T) *DB {
	t.Helper()
	return Open(Options{Partitions: 4})
}

func mustExec(t *testing.T, d *DB, sql string) {
	t.Helper()
	if _, err := d.Exec(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func query(t *testing.T, d *DB, sql string) [][]string {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.String()
		}
	}
	return out
}

func loadFixture(t *testing.T, d *DB) {
	t.Helper()
	mustExec(t, d, "CREATE TABLE X (i BIGINT, X1 DOUBLE, X2 DOUBLE, grp VARCHAR)")
	for i := 1; i <= 10; i++ {
		g := "a"
		if i%2 == 0 {
			g = "b"
		}
		mustExec(t, d, fmt.Sprintf("INSERT INTO X VALUES (%d, %d.0, %d.0, '%s')", i, i, i*i, g))
	}
}

func TestCreateInsertSelect(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT i, X1 FROM X ORDER BY i")
	if len(rows) != 10 || rows[0][0] != "1" || rows[9][1] != "10" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCreateTableErrors(t *testing.T) {
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE t (a INT)")
	if _, err := d.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("duplicate create must fail")
	}
	mustExec(t, d, "CREATE TABLE IF NOT EXISTS t (a INT)")
	if _, err := d.Exec("CREATE TABLE u (a BLOB)"); err == nil {
		t.Fatal("bad type must fail")
	}
	if _, err := d.Exec("DROP TABLE nope"); err == nil {
		t.Fatal("drop missing must fail")
	}
	mustExec(t, d, "DROP TABLE IF EXISTS nope")
	mustExec(t, d, "DROP TABLE t")
	if d.HasTable("t") {
		t.Fatal("table t should be gone")
	}
}

func TestWhereFilter(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT i FROM X WHERE X1 > 7.5 ORDER BY i")
	if len(rows) != 3 || rows[0][0] != "8" {
		t.Fatalf("rows = %v", rows)
	}
	rows = query(t, d, "SELECT i FROM X WHERE grp = 'a' AND X1 < 5 ORDER BY i")
	if len(rows) != 2 || rows[0][0] != "1" || rows[1][0] != "3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregates(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT count(*), sum(X1), avg(X1), min(X1), max(X1) FROM X")
	want := []string{"10", "55", "5.5", "1", "10"}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	for j, w := range want {
		if rows[0][j] != w {
			t.Fatalf("col %d = %s, want %s (row %v)", j, rows[0][j], w, rows[0])
		}
	}
}

func TestAggregateOverEmptyTable(t *testing.T) {
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE e (a DOUBLE)")
	rows := query(t, d, "SELECT count(*), sum(a) FROM e")
	if len(rows) != 1 || rows[0][0] != "0" || rows[0][1] != "NULL" {
		t.Fatalf("rows = %v", rows)
	}
	// Grouped aggregate over empty input yields no rows.
	rows = query(t, d, "SELECT a, count(*) FROM e GROUP BY a")
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGroupBy(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT grp, count(*), sum(X1) FROM X GROUP BY grp ORDER BY grp")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "a" || rows[0][1] != "5" || rows[0][2] != "25" {
		t.Fatalf("group a = %v", rows[0])
	}
	if rows[1][0] != "b" || rows[1][1] != "5" || rows[1][2] != "30" {
		t.Fatalf("group b = %v", rows[1])
	}
}

func TestGroupByExpression(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	// The paper's Table 5 workload: GROUP BY mod(i, k).
	rows := query(t, d, "SELECT i % 3, count(*) FROM X GROUP BY i % 3 ORDER BY 1")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// i in 1..10: mod 0 → {3,6,9}, mod 1 → {1,4,7,10}, mod 2 → {2,5,8}
	if rows[0][1] != "3" || rows[1][1] != "4" || rows[2][1] != "3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExpressionOverAggregates(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	// Correlation-style arithmetic over sums.
	rows := query(t, d, "SELECT sqrt(count(*) * sum(X1*X1) - sum(X1)*sum(X1)) FROM X")
	n, sx, sxx := 10.0, 55.0, 385.0
	want := math.Sqrt(n*sxx - sx*sx)
	got := parseF(t, rows[0][0])
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %g want %g", got, want)
	}
}

func TestNonGroupedColumnRejected(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	if _, err := d.Exec("SELECT grp, sum(X1) FROM X"); err == nil {
		t.Fatal("naked column with aggregate must fail")
	}
	if _, err := d.Exec("SELECT i, grp FROM X GROUP BY grp"); err == nil {
		t.Fatal("non-grouped column must fail")
	}
}

func TestHaving(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	// Keep only the group whose sum exceeds 26.
	rows := query(t, d, "SELECT grp, sum(X1) FROM X GROUP BY grp HAVING sum(X1) > 26 ORDER BY grp")
	if len(rows) != 1 || rows[0][0] != "b" || rows[0][1] != "30" {
		t.Fatalf("rows = %v", rows)
	}
	// HAVING on a group key expression.
	rows = query(t, d, "SELECT grp, count(*) FROM X GROUP BY grp HAVING grp = 'a'")
	if len(rows) != 1 || rows[0][0] != "a" {
		t.Fatalf("rows = %v", rows)
	}
	// HAVING referencing an aggregate absent from the select list.
	rows = query(t, d, "SELECT grp FROM X GROUP BY grp HAVING max(X2) >= 100")
	if len(rows) != 1 || rows[0][0] != "b" { // max X2 = 100 at i=10 (grp b)
		t.Fatalf("rows = %v", rows)
	}
	// Global aggregate with HAVING.
	rows = query(t, d, "SELECT sum(X1) FROM X HAVING count(*) > 100")
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	// Errors: HAVING without aggregation, or naked columns inside it.
	if _, err := d.Exec("SELECT i FROM X HAVING i > 1"); err == nil {
		t.Fatal("HAVING without aggregates must fail")
	}
	if _, err := d.Exec("SELECT grp, count(*) FROM X GROUP BY grp HAVING i > 1"); err == nil {
		t.Fatal("non-grouped column in HAVING must fail")
	}
}

func TestCountDistinct(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT count(DISTINCT grp), count(DISTINCT i % 2) FROM X")
	if rows[0][0] != "2" || rows[0][1] != "2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCrossJoin(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	mustExec(t, d, "CREATE TABLE beta (b0 DOUBLE, b1 DOUBLE)")
	mustExec(t, d, "INSERT INTO beta VALUES (100.0, 2.0)")
	// The paper's regression-scoring shape: X CROSS JOIN BETA.
	rows := query(t, d, "SELECT i, b0 + b1 * X1 AS yhat FROM X CROSS JOIN beta ORDER BY i")
	if len(rows) != 10 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1] != "102" || rows[9][1] != "120" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCrossJoinMultipleAliases(t *testing.T) {
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE C (j BIGINT, v DOUBLE)")
	mustExec(t, d, "INSERT INTO C VALUES (1, 10.0), (2, 20.0)")
	mustExec(t, d, "CREATE TABLE P (i BIGINT, x DOUBLE)")
	mustExec(t, d, "INSERT INTO P VALUES (1, 1.0)")
	// Alias the same small table twice, the paper's k-fold cross join.
	rows := query(t, d, `SELECT i, c1.v, c2.v FROM P CROSS JOIN C c1 CROSS JOIN C c2
	                     WHERE c1.j = 1 AND c2.j = 2`)
	if len(rows) != 1 || rows[0][1] != "10" || rows[0][2] != "20" {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := d.Exec("SELECT * FROM C, C"); err == nil {
		t.Fatal("duplicate unaliased table must fail")
	}
}

func TestSelectStar(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT * FROM X WHERE i = 3")
	if len(rows) != 1 || len(rows[0]) != 4 || rows[0][3] != "a" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT i FROM X ORDER BY X2 DESC LIMIT 3")
	if len(rows) != 3 || rows[0][0] != "10" || rows[2][0] != "8" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByExpressionAndHiddenKeys(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	// ORDER BY an expression over a column not in the output: the
	// executor computes it as a hidden trailing column and strips it.
	rows := query(t, d, "SELECT grp FROM X ORDER BY X2 - X1 DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0] != "b" { // i=10 (grp b) has max X2-X1
		t.Fatalf("rows = %v", rows)
	}
	if len(rows[0]) != 1 {
		t.Fatalf("hidden order column leaked: %v", rows[0])
	}
	// ORDER BY an output alias expression.
	rows = query(t, d, "SELECT X1 * 2 AS dbl FROM X ORDER BY dbl DESC LIMIT 1")
	if rows[0][0] != "20" {
		t.Fatalf("rows = %v", rows)
	}
	// ORDER BY ordinal out of range errors.
	if _, err := d.Exec("SELECT i FROM X ORDER BY 5"); err == nil {
		t.Fatal("bad ordinal must fail")
	}
	if _, err := d.Exec("SELECT i FROM X ORDER BY nosuch"); err == nil {
		t.Fatal("unknown order key must fail")
	}
}

func TestOrderByOnAggregateOutput(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	rows := query(t, d, "SELECT grp, sum(X1) AS s FROM X GROUP BY grp ORDER BY s DESC")
	if rows[0][0] != "b" || rows[1][0] != "a" {
		t.Fatalf("rows = %v", rows)
	}
	// Hidden ORDER BY key over a source column combined with grouping
	// is rejected (it is not in the output and not grouped).
	if _, err := d.Exec("SELECT grp, sum(X1) FROM X GROUP BY grp ORDER BY i"); err == nil {
		t.Fatal("ungrouped hidden order key must fail")
	}
}

func TestInsertSelect(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	mustExec(t, d, "CREATE TABLE Y (i BIGINT, v DOUBLE)")
	res, err := d.Exec("INSERT INTO Y SELECT i, X1 * 2 FROM X WHERE i <= 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 5 {
		t.Fatalf("affected = %d", res.Affected)
	}
	rows := query(t, d, "SELECT sum(v) FROM Y")
	if rows[0][0] != "30" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertColumnList(t *testing.T) {
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE t (a DOUBLE, b DOUBLE, c VARCHAR)")
	mustExec(t, d, "INSERT INTO t (c, a) VALUES ('x', 1.5)")
	rows := query(t, d, "SELECT a, b, c FROM t")
	if rows[0][0] != "1.5" || rows[0][1] != "NULL" || rows[0][2] != "x" {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := d.Exec("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Fatal("bad column must fail")
	}
	if _, err := d.Exec("INSERT INTO t (a, b) VALUES (1)"); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func TestConstSelect(t *testing.T) {
	d := openTest(t)
	rows := query(t, d, "SELECT 1 + 1, 'x' || 'y', sqrt(9)")
	if rows[0][0] != "2" || rows[0][1] != "xy" || rows[0][2] != "3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCaseInSelect(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	// Binary-flag derivation, §3.6 of the paper.
	rows := query(t, d, "SELECT sum(CASE WHEN grp = 'a' THEN 1 ELSE 0 END) FROM X")
	if rows[0][0] != "5" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestScalarUDFInQuery(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	err := d.Scalars().Register(expr.FuncDef{
		Name: "square", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
			if args[0].IsNull() {
				return sqltypes.Null, nil
			}
			f, _ := args[0].Float()
			return sqltypes.NewDouble(f * f), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := query(t, d, "SELECT square(X1) FROM X WHERE i = 4")
	if rows[0][0] != "16" {
		t.Fatalf("rows = %v", rows)
	}
}

// sumPairAgg is a 2-argument aggregate UDF used to exercise the
// aggregate-UDF path end to end (including packed-string results).
type sumPairAgg struct{}

type sumPairState struct{ a, b float64 }

func (sumPairAgg) Name() string { return "sumpair" }
func (sumPairAgg) CheckArgs(n int) error {
	if n != 2 {
		return fmt.Errorf("sumpair expects 2 args")
	}
	return nil
}
func (sumPairAgg) Init(h *udf.Heap) (udf.State, error) {
	if err := h.Alloc(16); err != nil {
		return nil, err
	}
	return &sumPairState{}, nil
}
func (sumPairAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*sumPairState)
	if args[0].IsNull() || args[1].IsNull() {
		return nil
	}
	a, _ := args[0].Float()
	b, _ := args[1].Float()
	st.a += a
	st.b += b
	return nil
}
func (sumPairAgg) Merge(dst, src udf.State) error {
	d, s := dst.(*sumPairState), src.(*sumPairState)
	d.a += s.a
	d.b += s.b
	return nil
}
func (sumPairAgg) Finalize(s udf.State) (sqltypes.Value, error) {
	st := s.(*sumPairState)
	return sqltypes.NewVarChar(udf.PackFloats([]float64{st.a, st.b})), nil
}

func TestAggregateUDF(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	if err := d.Aggregates().Register(sumPairAgg{}); err != nil {
		t.Fatal(err)
	}
	rows := query(t, d, "SELECT sumpair(X1, X2) FROM X")
	vals, err := udf.UnpackFloats(rows[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 55 || vals[1] != 385 {
		t.Fatalf("vals = %v", vals)
	}
	// Grouped aggregate UDF.
	res := query(t, d, "SELECT grp, sumpair(X1, X2) FROM X GROUP BY grp ORDER BY grp")
	if len(res) != 2 {
		t.Fatalf("res = %v", res)
	}
	va, _ := udf.UnpackFloats(res[0][1])
	if va[0] != 25 { // odd i sum
		t.Fatalf("group a = %v", va)
	}
	// Bad arity is caught at plan time.
	if _, err := d.Exec("SELECT sumpair(X1) FROM X"); err == nil {
		t.Fatal("bad arity must fail")
	}
}

func TestQueryStream(t *testing.T) {
	d := openTest(t)
	loadFixture(t, d)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	var got []float64
	_, err := d.QueryStream("SELECT X1 * 10 FROM X", func(r sqltypes.Row) error {
		<-mu
		defer func() { mu <- struct{}{} }()
		got = append(got, r[0].MustFloat())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("streamed %d rows", len(got))
	}
	sort.Float64s(got)
	if got[0] != 10 || got[9] != 100 {
		t.Fatalf("got = %v", got)
	}
	// ORDER BY/LIMIT cannot stream from the scan: the engine materializes
	// and replays into the sink in order, leaving no rows in the result.
	var ordered []int64
	res, err := d.QueryContext(context.Background(), "SELECT i FROM X ORDER BY i DESC LIMIT 3", func(r sqltypes.Row) error {
		ordered = append(ordered, r[0].Int())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) != 3 || ordered[0] != 10 || ordered[1] != 9 || ordered[2] != 8 {
		t.Fatalf("ordered replay = %v, want [10 9 8]", ordered)
	}
	if len(res.Rows) != 0 || res.Schema == nil || res.Stats == nil {
		t.Fatalf("sunk result = %d rows, schema %v, stats %v; want no rows beside schema and stats", len(res.Rows), res.Schema, res.Stats)
	}
}

func TestExecScript(t *testing.T) {
	d := openTest(t)
	res, err := d.ExecScript(`
		CREATE TABLE s (a DOUBLE);
		INSERT INTO s VALUES (1), (2), (3);
		SELECT sum(a) FROM s;`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Value()
	if err != nil || v.MustFloat() != 6 {
		t.Fatalf("value = %v, %v", v, err)
	}
}

func TestWidePaperQuery(t *testing.T) {
	// The paper's one-scan n, L, Q query at d=4 with NULL padding.
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE W (X1 DOUBLE, X2 DOUBLE, X3 DOUBLE, X4 DOUBLE)")
	mustExec(t, d, "INSERT INTO W VALUES (1,2,3,4), (5,6,7,8), (9,10,11,12)")
	var b strings.Builder
	b.WriteString("SELECT sum(1.0)")
	for a := 1; a <= 4; a++ {
		fmt.Fprintf(&b, ", sum(X%d)", a)
	}
	for a := 1; a <= 4; a++ {
		for c := 1; c <= 4; c++ {
			if c <= a {
				fmt.Fprintf(&b, ", sum(X%d * X%d)", a, c)
			} else {
				b.WriteString(", null")
			}
		}
	}
	b.WriteString(" FROM W")
	rows := query(t, d, b.String())
	if len(rows) != 1 || len(rows[0]) != 1+4+16 {
		t.Fatalf("shape = %d×%d", len(rows), len(rows[0]))
	}
	if rows[0][0] != "3" { // n
		t.Fatalf("n = %s", rows[0][0])
	}
	if rows[0][1] != "15" { // L1 = 1+5+9
		t.Fatalf("L1 = %s", rows[0][1])
	}
	// Q11 = 1 + 25 + 81 = 107
	if rows[0][5] != "107" {
		t.Fatalf("Q11 = %s", rows[0][5])
	}
	// Upper triangle padded with NULL.
	if rows[0][6] != "NULL" {
		t.Fatalf("Q12 = %s", rows[0][6])
	}
}

func TestResultValue(t *testing.T) {
	d := openTest(t)
	res, err := d.Exec("SELECT 42")
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Value()
	if err != nil || v.Int() != 42 {
		t.Fatalf("%v %v", v, err)
	}
	res2, _ := d.Exec("SELECT 1, 2")
	if _, err := res2.Value(); err == nil {
		t.Fatal("Value on wide result must fail")
	}
}

func TestOnDiskDatabase(t *testing.T) {
	d := Open(Options{Dir: t.TempDir(), Partitions: 3})
	mustExec(t, d, "CREATE TABLE t (a DOUBLE)")
	mustExec(t, d, "INSERT INTO t VALUES (1), (2), (3), (4), (5)")
	rows := query(t, d, "SELECT sum(a), count(*) FROM t")
	if rows[0][0] != "15" || rows[0][1] != "5" {
		t.Fatalf("rows = %v", rows)
	}
	tab, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !tab.OnDisk() {
		t.Fatal("table should be on disk")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return f
}
