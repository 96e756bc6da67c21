package exec

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

var updateJoinTail = flag.Bool("update-jointail", false, "rewrite testdata/jointail.golden")

// joinTailFuncs is the built-in registry plus dotf(a, b, v, w) = a·v + b·w,
// a numeric scalar UDF with a float body like the scoring UDFs: a call
// whose arguments all convert runs unboxed, any other goes boxed.
func joinTailFuncs(t *testing.T) *expr.Registry {
	t.Helper()
	r := expr.NewRegistry()
	err := r.Register(expr.FuncDef{Name: "dotf", MinArgs: 4, MaxArgs: 4, Ret: sqltypes.TypeDouble, UDF: true,
		Float: func(x []float64) (float64, error) { return x[0]*x[2] + x[1]*x[3], nil }})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// joinTailModel is the model table m(j, v, w, s): three clean rows, one
// with a NULL v and a non-numeric s; s holds numeric text elsewhere.
func joinTailModel(t *testing.T) *storage.Table {
	str := sqltypes.NewVarChar
	return newTable(t, "m", []sqltypes.Column{icol("j"), dcol("v"), dcol("w"), vcol("s")},
		sqltypes.Row{big(1), sqltypes.NewDouble(0.5), sqltypes.NewDouble(2), str("1.5")},
		sqltypes.Row{big(2), sqltypes.NewDouble(-1.25), sqltypes.NewDouble(0.75), str("2")},
		sqltypes.Row{big(3), sqltypes.NewDouble(3), sqltypes.NewDouble(-0.5), str("0.25")},
		sqltypes.Row{big(4), sqltypes.Null, sqltypes.NewDouble(1), str("abc")},
	)
}

// joinTailDriving is the driving table x(i, a, b), 60 rows with NULLs in
// a and b, in nparts partitions under dir ("" for memory). Both forms
// have the same partitions, so their sums add in the same order.
func joinTailDriving(t *testing.T, dir string, nparts int) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable("x", &sqltypes.Schema{Columns: []sqltypes.Column{icol("i"), dcol("a"), dcol("b")}}, dir, nparts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		r := sqltypes.Row{big(int64(i)), sqltypes.NewDouble(float64(i)*0.37 - 5), sqltypes.NewDouble(float64(i%9)*1.5 - 3)}
		if i%7 == 3 {
			r[1] = sqltypes.Null
		}
		if i%11 == 5 {
			r[2] = sqltypes.Null
		}
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// joinTailShapes are the join-tail shapes of §3.5's scoring statements
// and their neighbours: sql runs ad hoc, param (or sql when empty)
// prepared with args.
var joinTailShapes = []struct {
	name, sql, param string
	args             []sqltypes.Value
}{
	{name: "one-row tail",
		sql:   "SELECT i, dotf(a, b, m.v, m.w), a * m.v FROM x CROSS JOIN m WHERE m.j = 1",
		param: "SELECT i, dotf(a, b, m.v, m.w), a * m.v FROM x CROSS JOIN m WHERE m.j = ?", args: []sqltypes.Value{big(1)}},
	{name: "k aliased one-row tails",
		sql:   "SELECT i, dotf(a, b, m1.v, m2.w) + dotf(a, a, m3.v, m3.w), m1.j + m2.j + m3.j FROM x CROSS JOIN m m1 CROSS JOIN m m2 CROSS JOIN m m3 WHERE m1.j = 1 AND m2.j = 2 AND m3.j = 3",
		param: "SELECT i, dotf(a, b, m1.v, m2.w) + dotf(a, a, m3.v, m3.w), m1.j + m2.j + m3.j FROM x CROSS JOIN m m1 CROSS JOIN m m2 CROSS JOIN m m3 WHERE m1.j = ? AND m2.j = ? AND m3.j = ?",
		args:  []sqltypes.Value{big(1), big(2), big(3)}},
	{name: "multi-row tail",
		sql:   "SELECT i, m.j, dotf(a, b, m.v, m.w), m.s FROM x CROSS JOIN m",
		param: "SELECT i, m.j, dotf(a, b, m.v, m.w) * ?, m.s FROM x CROSS JOIN m", args: []sqltypes.Value{big(1)}},
	{name: "residual on driving columns",
		sql:   "SELECT i, dotf(a, b, m.v, m.w) FROM x CROSS JOIN m WHERE m.j = 2 AND x.i = 7",
		param: "SELECT i, dotf(a, b, m.v, m.w) FROM x CROSS JOIN m WHERE m.j = 2 AND x.i = ?", args: []sqltypes.Value{big(7)}},
	{name: "residual mixing driving and tail columns",
		sql:   "SELECT i, m.j FROM x CROSS JOIN m WHERE a * m.w > b + m.v",
		param: "SELECT i, m.j FROM x CROSS JOIN m WHERE a * m.w > b + m.v * ?", args: []sqltypes.Value{big(1)}},
	{name: "residual mixing, one-row tail",
		sql:   "SELECT i, dotf(b, a, m.w, m.v) FROM x CROSS JOIN m WHERE m.j = 3 AND a > m.v * 2",
		param: "SELECT i, dotf(b, a, m.w, m.v) FROM x CROSS JOIN m WHERE m.j = ? AND a > m.v * 2", args: []sqltypes.Value{big(3)}},
	{name: "GROUP BY over one-row tails",
		sql: "SELECT dotf(a, b, m1.v, m1.w) > dotf(a, b, m2.v, m2.w) AS k, count(*), sum(a * m1.v), sum(m2.w) FROM x CROSS JOIN m m1 CROSS JOIN m m2 " +
			"WHERE m1.j = 1 AND m2.j = 2 GROUP BY dotf(a, b, m1.v, m1.w) > dotf(a, b, m2.v, m2.w)"},
	{name: "GROUP BY over a multi-row tail",
		sql:   "SELECT m.j, count(*), sum(a * m.v), min(b + m.w), max(m.s) FROM x CROSS JOIN m GROUP BY m.j",
		param: "SELECT m.j, count(*), sum(a * m.v), min(b + m.w * ?), max(m.s) FROM x CROSS JOIN m GROUP BY m.j", args: []sqltypes.Value{big(1)}},
	{name: "NULL in a tail column",
		sql:   "SELECT i, dotf(a, b, m.v, m.w), a + m.v FROM x CROSS JOIN m WHERE m.j = 4",
		param: "SELECT i, dotf(a, b, m.v, m.w), a + m.v FROM x CROSS JOIN m WHERE m.j = ?", args: []sqltypes.Value{big(4)}},
	{name: "numeric VARCHAR in a tail column",
		sql:   "SELECT i, dotf(a, b, m.s, m.w) FROM x CROSS JOIN m WHERE m.j < 4",
		param: "SELECT i, dotf(a, b, m.s, m.w) FROM x CROSS JOIN m WHERE m.j < ?", args: []sqltypes.Value{big(4)}},
	{name: "non-numeric VARCHAR in a tail column",
		sql:   "SELECT i, dotf(1, 1, m.s, m.w) FROM x CROSS JOIN m WHERE m.j = 4",
		param: "SELECT i, dotf(1, 1, m.s, m.w) FROM x CROSS JOIN m WHERE m.j = ?", args: []sqltypes.Value{big(4)}},
	{name: "empty tail",
		sql:   "SELECT i, dotf(a, b, m.v, m.w) FROM x CROSS JOIN m WHERE m.j = 99",
		param: "SELECT i, dotf(a, b, m.v, m.w) FROM x CROSS JOIN m WHERE m.j = ?", args: []sqltypes.Value{big(99)}},
	{name: "aggregate over an empty tail",
		sql:   "SELECT count(*), sum(a * m.v) FROM x CROSS JOIN m WHERE m.j = 99",
		param: "SELECT count(*), sum(a * m.v) FROM x CROSS JOIN m WHERE m.j = ?", args: []sqltypes.Value{big(99)}},
	{name: "? in the select list",
		sql:   "SELECT i, a * 2.5 + m.v, dotf(a, -1, m.v, m.w) FROM x CROSS JOIN m WHERE m.j = 1",
		param: "SELECT i, a * ? + m.v, dotf(a, ?, m.v, m.w) FROM x CROSS JOIN m WHERE m.j = 1", args: []sqltypes.Value{sqltypes.NewDouble(2.5), big(-1)}},
}

// joinTailResult renders a statement's outcome: its rows with exact bits,
// sorted, or its error.
func joinTailResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return strings.Join(canonRows(res.Rows, false), "\n") + "\n"
}

// TestJoinTailShapes runs every join-tail shape ad hoc and prepared
// (twice, the second time on pooled workers), over a driving table in
// memory and on disk, and demands the rows — exact bits — or the error
// recorded in testdata/jointail.golden. The last block rewrites the
// model table between two executions of one prepared statement, so the
// second must see the new model row.
func TestJoinTailShapes(t *testing.T) {
	funcs := joinTailFuncs(t)
	var golden strings.Builder
	for _, storage := range []string{"memory", "disk"} {
		env := func() *Env {
			dir := ""
			if storage == "disk" {
				dir = t.TempDir()
			}
			return &Env{Catalog: memCatalog{"x": joinTailDriving(t, dir, 3), "m": joinTailModel(t)}, Funcs: funcs, Aggs: udf.NewRegistry()}
		}
		var out strings.Builder
		for _, c := range joinTailShapes {
			e := env()
			adhoc := joinTailResult(Select(context.Background(), sel(t, c.sql), e))
			param := c.param
			if param == "" {
				param = c.sql
			}
			p, err := PrepareSelect(sel(t, param), e)
			if err != nil {
				t.Fatalf("%s: prepare %q: %v", storage, param, err)
			}
			for run := 1; run <= 2; run++ {
				if got := joinTailResult(p.Run(context.Background(), c.args, nil)); got != adhoc {
					t.Fatalf("%s: %s: prepared execution %d differs from ad hoc\nad hoc:\n%s\nprepared:\n%s", storage, c.name, run, adhoc, got)
				}
			}
			fmt.Fprintf(&out, "== %s\n%s\n%s", c.name, c.sql, adhoc)
		}

		// The model table rewritten between two executions of one plan.
		e := env()
		const rewrite = "SELECT i, dotf(a, b, m.v, m.w), m.s FROM x CROSS JOIN m WHERE m.j = 1"
		p, err := PrepareSelect(sel(t, "SELECT i, dotf(a, b, m.v, m.w), m.s FROM x CROSS JOIN m WHERE m.j = ?"), e)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := e.Catalog.Table("m")
		for round, row := range []sqltypes.Row{
			nil, // the model as loaded
			{big(1), sqltypes.NewDouble(-7.5), sqltypes.NewDouble(0.125), sqltypes.NewVarChar("new")},
			{big(1), sqltypes.NewDouble(4), sqltypes.Null, sqltypes.NewVarChar("newer")},
		} {
			if row != nil {
				if err := m.Truncate(); err != nil {
					t.Fatal(err)
				}
				if err := m.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			got := joinTailResult(p.Run(context.Background(), []sqltypes.Value{big(1)}, nil))
			if adhoc := joinTailResult(Select(context.Background(), sel(t, rewrite), e)); got != adhoc {
				t.Fatalf("%s: rewritten model, round %d: prepared differs from ad hoc\nad hoc:\n%s\nprepared:\n%s", storage, round, adhoc, got)
			}
			fmt.Fprintf(&out, "== model rewritten, round %d\n%s\n%s", round, rewrite, got)
		}

		if golden.Len() == 0 {
			golden.WriteString(out.String())
		} else if out.String() != golden.String() {
			t.Fatal("a driving table on disk gives other results than the same table in memory")
		}
	}

	path := filepath.Join("testdata", "jointail.golden")
	if *updateJoinTail {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-jointail): %v", err)
	}
	if golden.String() != string(want) {
		gl, wl := strings.Split(golden.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<eof>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("join-tail results differ from the golden at line %d\n got: %s\nwant: %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("join-tail results are shorter than the golden: %d lines, want %d", len(gl), len(wl))
	}
}
