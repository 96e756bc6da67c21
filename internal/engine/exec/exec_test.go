package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

// memCatalog is a minimal Catalog for white-box tests.
type memCatalog map[string]*storage.Table

func (c memCatalog) Table(name string) (*storage.Table, error) {
	t, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

func newTable(t *testing.T, name string, cols []sqltypes.Column, rows ...sqltypes.Row) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable(name, &sqltypes.Schema{Columns: cols}, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

func testEnv(t *testing.T) (*Env, memCatalog) {
	t.Helper()
	cat := memCatalog{}
	return &Env{Catalog: cat, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry()}, cat
}

func dcol(n string) sqltypes.Column { return sqltypes.Column{Name: n, Type: sqltypes.TypeDouble} }
func icol(n string) sqltypes.Column { return sqltypes.Column{Name: n, Type: sqltypes.TypeBigInt} }

func drow(vals ...float64) sqltypes.Row {
	r := make(sqltypes.Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewDouble(v)
	}
	return r
}

func sel(t testing.TB, sql string) *sqlparser.Select {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.Select)
}

func TestSplitConjuncts(t *testing.T) {
	e, _ := sqlparser.ParseExpr("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	parts := splitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("%d conjuncts", len(parts))
	}
	if splitConjuncts(nil) != nil {
		t.Fatal("nil should split to nil")
	}
	single, _ := sqlparser.ParseExpr("a = 1 OR b = 2")
	if got := splitConjuncts(single); len(got) != 1 {
		t.Fatalf("OR must not split: %d", len(got))
	}
}

// joinTail plans, compiles and scans the cross-join tail the way a
// prepared statement does, returning the tail rows and the residual.
func joinTail(ctx context.Context, b *binding, where sqlparser.Expr, funcs *expr.Registry) ([]sqltypes.Row, sqlparser.Expr, error) {
	tp := planTail(b, where)
	filters, err := tp.compileFilters(b, &expr.Scope{Funcs: funcs})
	if err != nil {
		return nil, nil, err
	}
	tail, err := tp.scan(ctx, b, filters)
	return tail, tp.residual, err
}

func TestJoinTailPushdown(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")}, drow(1))
	// Model-style table with 100 rows; pushdown keeps only j = 7.
	var rows []sqltypes.Row
	for j := 1; j <= 100; j++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewBigInt(int64(j)), sqltypes.NewDouble(float64(j) * 10)})
	}
	cat["m"] = newTable(t, "m", []sqltypes.Column{icol("j"), dcol("v")}, rows...)

	s := sel(t, "SELECT a, v FROM x CROSS JOIN m WHERE m.j = 7 AND a > 0")
	b, err := bindFrom(s.From, env.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	tail, residual, err := joinTail(context.Background(), b, s.Where, env.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 {
		t.Fatalf("pushdown failed: tail has %d rows", len(tail))
	}
	if tail[0][1].MustFloat() != 70 {
		t.Fatalf("wrong tail row: %v", tail[0])
	}
	// Residual keeps only the first-table predicate.
	if residual == nil || residual.String() != "(a > 0)" {
		t.Fatalf("residual = %v", residual)
	}
}

func TestJoinTailAliasedTwice(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")}, drow(1))
	cat["c"] = newTable(t, "c", []sqltypes.Column{icol("j"), dcol("v")},
		sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewDouble(10)},
		sqltypes.Row{sqltypes.NewBigInt(2), sqltypes.NewDouble(20)},
	)
	s := sel(t, "SELECT a FROM x CROSS JOIN c c1 CROSS JOIN c c2 WHERE c1.j = 1 AND c2.j = 2")
	b, err := bindFrom(s.From, env.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	tail, residual, err := joinTail(context.Background(), b, s.Where, env.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || residual != nil {
		t.Fatalf("tail=%d residual=%v", len(tail), residual)
	}
	// Tail = c1 row ++ c2 row.
	if tail[0][1].MustFloat() != 10 || tail[0][3].MustFloat() != 20 {
		t.Fatalf("tail row: %v", tail[0])
	}
}

func TestJoinTailCapStillEnforced(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")}, drow(1))
	var rows []sqltypes.Row
	for j := 0; j < 2000; j++ {
		rows = append(rows, drow(float64(j)))
	}
	cat["big"] = newTable(t, "big", []sqltypes.Column{dcol("v")}, rows...)
	s := sel(t, "SELECT a FROM x CROSS JOIN big b1 CROSS JOIN big b2 CROSS JOIN big b3")
	b, err := bindFrom(s.From, env.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := joinTail(context.Background(), b, s.Where, env.Funcs); err == nil {
		t.Fatal("unfiltered large cross join must hit the cap")
	}

	// Two 1 025-row tail tables make 1 050 625 rows, just past the cap:
	// the statement fails, and the second table's scan stops at the row
	// that crosses the cap instead of cloning all of it first.
	for _, name := range []string{"t1", "t2"} {
		rows := make([]sqltypes.Row, 1025)
		for i := range rows {
			rows[i] = drow(float64(i))
		}
		cat[name] = newTable(t, name, []sqltypes.Column{dcol("v" + name[1:])}, rows...)
	}
	_, err = Select(context.Background(), sel(t, "SELECT a + v1 + v2 FROM x CROSS JOIN t1 CROSS JOIN t2"), env)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds %d rows", maxJoinTailRows)) {
		t.Fatalf("err = %v, want the join-tail cap", err)
	}
	if n := cat["t2"].ScannedRows(); n >= 1025 {
		t.Fatalf("the second tail table delivered %d rows before the cap error", n)
	}
}

func TestRefsOnlyTable(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")}, drow(1))
	cat["m"] = newTable(t, "m", []sqltypes.Column{icol("j")})
	s := sel(t, "SELECT a FROM x CROSS JOIN m")
	b, err := bindFrom(s.From, env.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	onlyM, _ := sqlparser.ParseExpr("m.j = 1")
	mixed, _ := sqlparser.ParseExpr("m.j = a")
	constant, _ := sqlparser.ParseExpr("1 = 1")
	if !refsOnlyTable(onlyM, b, 1) {
		t.Fatal("m.j=1 should push down to table 1")
	}
	if refsOnlyTable(mixed, b, 1) {
		t.Fatal("cross-table predicate must not push down")
	}
	if refsOnlyTable(constant, b, 1) {
		t.Fatal("constant predicate must not push down")
	}
}

func TestBindingResolution(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a"), dcol("b")})
	cat["y"] = newTable(t, "y", []sqltypes.Column{dcol("b"), dcol("c")})
	s := sel(t, "SELECT 1 FROM x, y")
	b, err := bindFrom(s.From, env.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if idx, err := b.Ordinal("", "a"); err != nil || idx != 0 {
		t.Fatalf("a → %d, %v", idx, err)
	}
	if idx, err := b.Ordinal("", "c"); err != nil || idx != 3 {
		t.Fatalf("c → %d, %v", idx, err)
	}
	if _, err := b.Ordinal("", "b"); err == nil {
		t.Fatal("ambiguous column must fail")
	}
	if idx, err := b.Ordinal("y", "b"); err != nil || idx != 2 {
		t.Fatalf("y.b → %d, %v", idx, err)
	}
	if _, err := b.Ordinal("z", "b"); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, err := b.Ordinal("", "zz"); err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestRunParallelErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	err := RunParallel(context.Background(), 0, 8, func(_ context.Context, p int) error {
		if p == 5 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	if err := RunParallel(context.Background(), 0, 1, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestResultValueShapes(t *testing.T) {
	r := &Result{Schema: sqltypes.MustSchema(dcol("a")), Rows: []sqltypes.Row{drow(7)}}
	v, err := r.Value()
	if err != nil || v.MustFloat() != 7 {
		t.Fatalf("%v %v", v, err)
	}
	bad := &Result{Schema: sqltypes.MustSchema(dcol("a")), Rows: []sqltypes.Row{drow(1), drow(2)}}
	if _, err := bad.Value(); err == nil {
		t.Fatal("multi-row Value must fail")
	}
}

// selectStream plans sel and streams it once to sink.
func selectStream(ctx context.Context, sel *sqlparser.Select, env *Env, sink RowSink) (*Result, error) {
	p, err := PrepareSelect(sel, env)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, nil, sink)
}

// TestSelectStreamReplaysOrderBy: an ORDER BY/LIMIT plan cannot stream
// from its scan, so it materializes and replays its rows into the sink
// in order, leaving none in the Result.
func TestSelectStreamReplaysOrderBy(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")}, drow(3), drow(1), drow(4), drow(2))
	var got []float64
	res, err := selectStream(context.Background(), sel(t, "SELECT a FROM x ORDER BY a LIMIT 3"), env, func(r sqltypes.Row) error {
		got = append(got, r[0].MustFloat())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" || len(res.Rows) != 0 || res.Schema.Len() != 1 {
		t.Fatalf("streamed %v, result rows %d, schema %v; want [1 2 3], none, one column", got, len(res.Rows), res.Schema)
	}
}

func TestDuplicateFromNamesRejected(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")})
	s := sel(t, "SELECT 1 FROM x, x")
	if _, err := Select(context.Background(), s, env); err == nil {
		t.Fatal("duplicate unaliased FROM entries must fail")
	}
}

func TestExpandStarsErrors(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a")})
	s := sel(t, "SELECT y.* FROM x")
	b, err := bindFrom(s.From, env.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Expand(s.Items); err == nil {
		t.Fatal("y.* with no table y must fail")
	}
}

func TestItemNaming(t *testing.T) {
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT a + 1 AS total FROM x", "total"},
		{"SELECT a FROM x", "a"},
		{"SELECT t.a FROM x t", "a"},
		{"SELECT a + 1 FROM x", "(a + 1)"},
	}
	for _, c := range cases {
		s := sel(t, c.sql)
		if got := sqlparser.OutputName(s.Items[0], 0); got != c.want {
			t.Errorf("%s → %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestInsertArityValidation(t *testing.T) {
	env, cat := testEnv(t)
	cat["x"] = newTable(t, "x", []sqltypes.Column{dcol("a"), dcol("b")})
	st, err := sqlparser.Parse("INSERT INTO x VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(context.Background(), st.(*sqlparser.Insert), env); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	st, _ = sqlparser.Parse("INSERT INTO x (a) VALUES (1)")
	res, err := Insert(context.Background(), st.(*sqlparser.Insert), env)
	if err != nil || res.Affected != 1 {
		t.Fatalf("%v %v", res, err)
	}
}

func TestAggregateWithJoinAndGroupBy(t *testing.T) {
	// Aggregate over a cross join with pushdown: per-group sums with a
	// model table filter.
	env, cat := testEnv(t)
	var rows []sqltypes.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewBigInt(int64(i)), sqltypes.NewDouble(float64(i))})
	}
	cat["x"] = newTable(t, "x", []sqltypes.Column{icol("i"), dcol("v")}, rows...)
	cat["m"] = newTable(t, "m", []sqltypes.Column{icol("j"), dcol("scale")},
		sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewDouble(2)},
		sqltypes.Row{sqltypes.NewBigInt(2), sqltypes.NewDouble(100)},
	)
	s := sel(t, "SELECT i % 2, sum(v * scale) FROM x CROSS JOIN m WHERE m.j = 1 GROUP BY i % 2 ORDER BY 1")
	res, err := Select(context.Background(), s, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d groups", len(res.Rows))
	}
	// Even i: 0+2+...+18 = 90 → ×2 = 180; odd: 100 → ×2 = 200.
	if res.Rows[0][1].MustFloat() != 180 || res.Rows[1][1].MustFloat() != 200 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
