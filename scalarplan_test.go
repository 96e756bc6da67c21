package statsudf

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/obs"
)

// TestScalarArgPlansAgree is TestAggregateArgPlansAgree for scalar
// calls: however an argument slot of a scalar function is filled — a
// literal, a scan column, a join-tail column, a `?`, arithmetic, a
// nested call — the four score UDFs and the built-ins see the same
// values. Every statement is paired with a twin whose column arguments
// are spelled so that they are evaluated (`X * 1`, or a CASE that hands
// a VARCHAR through untouched) and whose literals and parameters trade
// places; the two must agree bit for bit, or fail with the same error,
// prepared and ad hoc, on every table layout. sema refuses a provable
// VARCHAR where a numeric parameter is declared, so strings reach the
// numeric functions through `?` and through coalesce, and reach a scan
// column slot only of the untyped built-ins.
func TestScalarArgPlansAgree(t *testing.T) {
	same := func(col string) string { return "CASE WHEN 1 = 1 THEN " + col + " END" }
	type stmt struct {
		sql  string
		args []Value
	}
	type pair struct {
		name         string
		gather, eval stmt
		wantErr      string
		// source, when set, is the source every partition of the gather
		// statement scans from: float rows where its select list runs on
		// them, boxed rows where a model value does not convert. The
		// evaluator twin always scans boxed rows.
		source string
	}
	pairs := []pair{
		{name: "the scoring shape: DOUBLE scan columns and join-tail columns, -0 and NaN",
			gather: stmt{sql: "SELECT i, linearregscore(X1, X2, v, X1, X4), fascore(X1, X2, v, X4, X2, X1), kdistance(X1, X2, v, X4), " +
				"clusterscore(kdistance(X1, X2, v, X4), kdistance(X1, X2, X4, v), X2), power(X1, v), greatest(X1, v, X2) FROM T CROSS JOIN m WHERE m.j = 2"},
			eval: stmt{sql: "SELECT i, linearregscore(X1 * 1, X2 * 1, v * 1, X1 * 1, X4 * 1), fascore(X1 * 1, X2 * 1, v * 1, X4 * 1, X2 * 1, X1 * 1), kdistance(X1 * 1, X2 * 1, v * 1, X4 * 1), " +
				"clusterscore(kdistance(X1 * 1, X2 * 1, v * 1, X4 * 1), kdistance(X1 * 1, X2 * 1, X4 * 1, v * 1), X2 * 1), power(X1 * 1, v * 1), greatest(X1 * 1, v * 1, X2 * 1) FROM T CROSS JOIN m WHERE m.j = 2"}},
		{name: "a BIGINT id beyond 2⁵³ projected bare", source: "float",
			gather: stmt{sql: "SELECT id, kdistance(X1, X2), clusterscore(X1, X2) FROM W"},
			eval:   stmt{sql: "SELECT id * 1, kdistance(X1 * 1, X2 * 1), clusterscore(X1 * 1, X2 * 1) FROM W"}},
		{name: "a NULL in a bound model value", source: "row",
			gather: stmt{sql: "SELECT i, kdistance(X1, X2, v, v), clusterscore(kdistance(X1, v), X2) FROM T CROSS JOIN mn WHERE mn.j = 2"},
			eval:   stmt{sql: "SELECT i, kdistance(X1 * 1, X2 * 1, v * 1, v * 1), clusterscore(kdistance(X1 * 1, v * 1), X2 * 1) FROM T CROSS JOIN mn WHERE mn.j = 2"}},
		{name: "a NULL model value in a row no alias keeps", source: "float",
			gather: stmt{sql: "SELECT i, kdistance(X1, X2, v, v) FROM T CROSS JOIN mn WHERE mn.j = 1"},
			eval:   stmt{sql: "SELECT i, kdistance(X1 * 1, X2 * 1, v * 1, v * 1) FROM T CROSS JOIN mn WHERE mn.j = 1"}},
		{name: "a multi-row tail", source: "float",
			gather: stmt{sql: "SELECT i, X3, kdistance(X1, X2, v, j), clusterscore(kdistance(X1, v), kdistance(X4, j), X2) FROM T CROSS JOIN m"},
			eval:   stmt{sql: "SELECT i * 1, X3 * 1, kdistance(X1 * 1, X2 * 1, v * 1, j * 1), clusterscore(kdistance(X1 * 1, v * 1), kdistance(X4 * 1, j * 1), X2 * 1) FROM T CROSS JOIN m"}},
		{name: "a BIGINT-returning call nested in another call", source: "float",
			gather: stmt{sql: "SELECT i, kdistance(clusterscore(X1, X2, X4), X2), power(clusterscore(X2, X1), 2), clusterscore(clusterscore(X4, X1), X1, b) FROM T"},
			eval:   stmt{sql: "SELECT i, kdistance(clusterscore(X1 * 1, X2 * 1, X4 * 1), X2 * 1), power(clusterscore(X2 * 1, X1 * 1), 2), clusterscore(clusterscore(X4 * 1, X1 * 1), X1 * 1, b * 1) FROM T"}},
		{name: "a NULL in a scan column",
			gather: stmt{sql: "SELECT i, kdistance(X1, X3), kdistance(X3, X1), linearregscore(X3, 1, 2), fascore(X1, X2, X3), clusterscore(X1, X3, X2), sqrt(X3 * X3), power(X3, 2), greatest(X1, X3) FROM T"},
			eval:   stmt{sql: "SELECT i, kdistance(X1 * 1, X3 * 1), kdistance(X3 * 1, X1 * 1), linearregscore(X3 * 1, 1, 2), fascore(X1 * 1, X2 * 1, X3 * 1), clusterscore(X1 * 1, X3 * 1, X2 * 1), sqrt(X3 * X3), power(X3 * 1, 2), greatest(X1 * 1, X3 * 1) FROM T"}},
		{name: "BIGINT scan and join-tail columns",
			gather: stmt{sql: "SELECT i, kdistance(b, X1, i, j), linearregscore(b, j, g), fascore(b, g, j), clusterscore(b, g, j), power(b, 2), sqrt(i), greatest(b, g), least(b, j) FROM T CROSS JOIN m"},
			eval:   stmt{sql: "SELECT i, kdistance(b * 1, X1 * 1, i * 1, j * 1), linearregscore(b * 1, j * 1, g * 1), fascore(b * 1, g * 1, j * 1), clusterscore(b * 1, g * 1, j * 1), power(b * 1, 2), sqrt(i * 1), greatest(b * 1, g * 1), least(b * 1, j * 1) FROM T CROSS JOIN m"}},
		{name: "literal slots, a NULL literal among them, against parameters",
			gather: stmt{sql: "SELECT i, kdistance(X1, 2, 0.5, X2), fascore(X1, 1, NULL), linearregscore(X1, 1, 2.5), clusterscore(3, X1, 0.5), power(2, X1), power(X1, NULL), greatest(X1, 0, -3.5) FROM T"},
			eval: stmt{sql: "SELECT i, kdistance(X1 * 1, ?, ?, X2 * 1), fascore(X1 * 1, ?, ?), linearregscore(X1 * 1, ?, ?), clusterscore(?, X1 * 1, ?), power(?, X1 * 1), power(X1 * 1, ?), greatest(X1 * 1, ?, ?) FROM T",
				args: []Value{NewBigInt(2), NewDouble(0.5), NewBigInt(1), Null, NewBigInt(1), NewDouble(2.5), NewBigInt(3), NewDouble(0.5), NewBigInt(2), Null, NewBigInt(0), NewDouble(-3.5)}}},
		{name: "parameter slots: DOUBLE, BIGINT and a numeric VARCHAR",
			gather: stmt{sql: "SELECT i, kdistance(X1, X2, ?, ?), linearregscore(X1, ?, ?), fascore(?, X1, X2), clusterscore(?, X1), power(?, 2), sqrt(?), greatest(?, X1) FROM T",
				args: []Value{NewDouble(1.5), NewBigInt(3), NewVarChar(" 2.5 "), NewDouble(-1), NewVarChar("4"), NewBigInt(7), NewVarChar("1.5"), NewVarChar("16"), NewDouble(0.25)}},
			eval: stmt{sql: "SELECT i, kdistance(X1 * 1, X2 * 1, 1.5, 3), linearregscore(X1 * 1, " + same("?") + ", -1.0), fascore(" + same("?") + ", X1 * 1, X2 * 1), clusterscore(7, X1 * 1), power(" + same("?") + ", 2), sqrt(" + same("?") + "), greatest(0.25, X1 * 1) FROM T",
				args: []Value{NewVarChar(" 2.5 "), NewVarChar("4"), NewVarChar("1.5"), NewVarChar("16")}}},
		{name: "a NULL parameter",
			gather: stmt{sql: "SELECT i, kdistance(X1, ?), clusterscore(X1, ?), sqrt(?) FROM T", args: []Value{Null, Null, Null}},
			eval:   stmt{sql: "SELECT i, kdistance(X1 * 1, NULL), clusterscore(X1 * 1, NULL), sqrt(NULL) FROM T"}},
		{name: "numeric VARCHAR columns, through coalesce and into the untyped built-ins",
			gather: stmt{sql: "SELECT i, kdistance(coalesce(s), X1), linearregscore(coalesce(s), 1, 2), fascore(X1, coalesce(s), X2), clusterscore(coalesce(s), X1), sqrt(coalesce(s)), power(coalesce(s), 2), greatest(s, bad), coalesce(X3, s), length(s) FROM T"},
			eval: stmt{sql: "SELECT i, kdistance(coalesce(" + same("s") + "), X1 * 1), linearregscore(coalesce(" + same("s") + "), 1, 2), fascore(X1 * 1, coalesce(" + same("s") + "), X2 * 1), clusterscore(coalesce(" + same("s") + "), X1 * 1), sqrt(coalesce(" + same("s") + ")), power(coalesce(" + same("s") + "), 2), " +
				"greatest(" + same("s") + ", " + same("bad") + "), coalesce(X3 * 1, " + same("s") + "), length(" + same("s") + ") FROM T"}},
		{name: "arithmetic slots",
			gather: stmt{sql: "SELECT i, kdistance(X1 + X2, X2 - 1, X4 * 2, v / 2), linearregscore(X1 - v, 1, -X2), power(X1 + 1, 2) FROM T CROSS JOIN m WHERE m.j = 3"},
			eval:   stmt{sql: "SELECT i, kdistance(X1 * 1 + X2 * 1, X2 * 1 - 1, X4 * 1 * 2, v * 1 / 2), linearregscore(X1 * 1 - v * 1, 1, -(X2 * 1)), power(X1 * 1 + 1, 2) FROM T CROSS JOIN m WHERE m.j = 3"}},
		{name: "nested calls",
			gather: stmt{sql: "SELECT i, sqrt(kdistance(X1, X2)), clusterscore(kdistance(X1, v), sqrt(abs(X1)), X2), power(kdistance(X1, v), 0.5), linearregscore(fascore(X1, X2, v), 1, kdistance(X2, v)) FROM T CROSS JOIN m WHERE m.j = 1"},
			eval:   stmt{sql: "SELECT i, sqrt(kdistance(X1 * 1, X2 * 1)), clusterscore(kdistance(X1 * 1, v * 1), sqrt(abs(X1 * 1)), X2 * 1), power(kdistance(X1 * 1, v * 1), 0.5), linearregscore(fascore(X1 * 1, X2 * 1, v * 1), 1, kdistance(X2 * 1, v * 1)) FROM T CROSS JOIN m WHERE m.j = 1"}},
		{name: "calls guarded by CASE: the failing call is never made",
			gather: stmt{sql: "SELECT i, CASE WHEN X2 < -4 THEN kdistance(X1, X2) ELSE linearregscore(X1, 1, 2) END, CASE WHEN i <> 100 THEN kdistance(coalesce(bad), X1) ELSE -1 END FROM T"},
			eval:   stmt{sql: "SELECT i, CASE WHEN X2 * 1 < -4 THEN kdistance(X1 * 1, X2 * 1) ELSE linearregscore(X1 * 1, 1, 2) END, CASE WHEN i <> 100 THEN kdistance(coalesce(" + same("bad") + "), X1 * 1) ELSE -1 END FROM T"}},
		{name: "scalar UDF in WHERE and under an aggregate",
			gather: stmt{sql: "SELECT g, sum(kdistance(X1, X2)), max(clusterscore(X1, X2, X4)) FROM T WHERE kdistance(X1, 0) > 1 GROUP BY g"},
			eval:   stmt{sql: "SELECT g, sum(kdistance(X1 * 1, X2 * 1)), max(clusterscore(X1 * 1, X2 * 1, X4 * 1)) FROM T WHERE kdistance(X1 * 1, 0) > 1 GROUP BY g"}},
	}
	// A value that is not a number fails the statement, whichever slot
	// class delivers it and whichever function receives it.
	for _, call := range []string{"kdistance(X1, %s)", "linearregscore(%s, 1, 2)", "fascore(X1, X2, %s)", "clusterscore(X1, %s)", "sqrt(%s)", "power(2, %s)"} {
		twin := strings.ReplaceAll(call, "X1", "X1 * 1")
		twin = strings.ReplaceAll(twin, "X2", "X2 * 1")
		pairs = append(pairs, pair{
			name:    "non-numeric VARCHAR into " + call,
			gather:  stmt{sql: "SELECT " + fmt.Sprintf(call, "coalesce(bad)") + " FROM T"},
			eval:    stmt{sql: "SELECT " + fmt.Sprintf(twin, "?") + " FROM T", args: []Value{NewVarChar("abc")}},
			wantErr: "non-numeric",
		})
	}
	pairs = append(pairs, pair{
		name:    "an argument count the UDF refuses at run time",
		gather:  stmt{sql: "SELECT kdistance(X1, X2, X4) FROM T"},
		eval:    stmt{sql: "SELECT kdistance(X1 * 1, X2 * 1, X4 * 1) FROM T"},
		wantErr: "kdistance expects 2d arguments",
	}, pair{
		name:    "an argument that fails before the call",
		gather:  stmt{sql: "SELECT kdistance(coalesce(bad), 1 / (i - 100)) FROM T"},
		eval:    stmt{sql: "SELECT kdistance(coalesce(" + same("bad") + "), 1 / (i * 1 - 100)) FROM T"},
		wantErr: "division by zero",
	})

	forEachLayout(t, func(t *testing.T, d *DB) {
		loadArgPlanTables(t, d)
		for _, p := range pairs {
			type outcome struct {
				how string
				res *Result
				err error
			}
			var outs []outcome
			for _, s := range []struct {
				how string
				stmt
			}{{"gather plan", p.gather}, {"evaluator plan", p.eval}} {
				res, err := runPrepared(d, s.sql, s.args...)
				outs = append(outs, outcome{s.how + ", prepared", res, err})
				if len(s.args) == 0 {
					res, err = d.Exec(s.sql)
					outs = append(outs, outcome{s.how + ", ad hoc", res, err})
				}
			}
			for _, o := range outs {
				if p.source != "" && o.err == nil {
					want := "row"
					if strings.HasPrefix(o.how, "gather") {
						want = p.source
					}
					for _, sp := range o.res.Stats.Root.SpanByName("scan").Children {
						if sp.Name != "ensure" && sp.Source != want {
							t.Fatalf("%s (%s): %s scanned from the %s source, want %s", p.name, o.how, sp.Name, sp.Source, want)
						}
					}
				}
				if p.wantErr != "" {
					if o.err == nil || !strings.Contains(o.err.Error(), p.wantErr) {
						t.Fatalf("%s (%s): error %v, want one carrying %q", p.name, o.how, o.err, p.wantErr)
					}
					if o.err.Error() != outs[0].err.Error() {
						t.Fatalf("%s: %s failed with %q, %s with %q", p.name, o.how, o.err, outs[0].how, outs[0].err)
					}
					continue
				}
				if o.err != nil {
					t.Fatalf("%s (%s): %v", p.name, o.how, o.err)
				}
				if g, w := canonResult(o.res), canonResult(outs[0].res); g != w {
					t.Fatalf("%s:\n%s\n%s\n%s\n%s", p.name, o.how, g, outs[0].how, w)
				}
				if len(o.res.Rows) == 0 {
					t.Fatalf("%s (%s): empty result", p.name, o.how)
				}
			}
		}

		// One prepared statement, three executions: a literal slot is
		// filled once per worker, so it must never be a slot a parameter
		// fills, and a pooled worker must not remember the last arguments.
		p, err := d.Engine().Prepare("SELECT i, kdistance(X1, ?, 2, ?), linearregscore(?, 1, X2), power(X1, ?) FROM T")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, a := range [][2]int64{{1, 10}, {2, 20}, {1, 10}} {
			got, err := p.Execute(NewBigInt(a[0]), NewBigInt(a[1]), NewBigInt(a[0]), NewBigInt(a[1]))
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.Exec(fmt.Sprintf("SELECT i, kdistance(X1, %d, 2, %d), linearregscore(%d, 1, X2), power(X1, %d) FROM T", a[0], a[1], a[0], a[1]))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonResult(got), canonResult(want); g != w {
				t.Fatalf("prepared with %v:\n%s\nliterals:\n%s", a, g, w)
			}
		}
	})
}

// TestNumericArgumentOrder pins the order in which the one adapter of
// the float bodies judges an argument list, on the three points where
// it differs from the bodies it replaced: arguments are judged left to
// right, so a non-number ahead of a NULL fails a two-argument built-in
// too (power's own body looked for NULLs first); a NULL ends the call
// before the body runs, so also before the body's argument-count check;
// and the error names the function, whichever function it is.
func TestNumericArgumentOrder(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	abc, one := NewVarChar("abc"), NewBigInt(1)
	for _, c := range []struct {
		sql     string
		args    []Value
		wantErr string // "" wants a NULL
	}{
		{"SELECT kdistance(?, ?)", []Value{Null, abc}, ""},
		{"SELECT kdistance(?, ?)", []Value{abc, Null}, "expr: kdistance: non-numeric argument abc"},
		{"SELECT power(?, ?)", []Value{Null, abc}, ""},
		{"SELECT power(?, ?)", []Value{abc, Null}, "expr: power: non-numeric argument abc"},
		{"SELECT kdistance(?, ?, ?)", []Value{one, one, one}, "kdistance expects 2d arguments"},
		{"SELECT kdistance(?, ?, ?)", []Value{one, one, Null}, ""},
		{"SELECT linearregscore(?, ?, ?, ?)", []Value{Null, one, one, one}, ""},
		{"SELECT clusterscore(?, ?)", []Value{one, abc}, "expr: clusterscore: non-numeric argument abc"},
		{"SELECT sqrt(?)", []Value{abc}, "expr: sqrt: non-numeric argument abc"},
	} {
		res, err := runPrepared(d, c.sql, c.args...)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s %v: error %v, want one carrying %q", c.sql, c.args, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s %v: %v", c.sql, c.args, err)
		case len(res.Rows) != 1 || !res.Rows[0][0].IsNull():
			t.Errorf("%s %v = %v, want NULL", c.sql, c.args, res.Rows)
		}
	}
}

// TestUDFCallsCountedExactly pins engine_udf_calls_total: it advances
// by one per scalar UDF invocation and one per aggregate Accumulate,
// whoever owns the evaluator — a partition worker, the per-statement
// set (join-tail filters, post-aggregation items, FROM-less selects),
// INSERT ... VALUES — and whether the statement completes, skips calls
// behind a CASE, or fails part-way. Built-ins are not counted.
func TestUDFCallsCountedExactly(t *testing.T) {
	open := func(partitions int) *DB {
		d, err := Open(Options{Partitions: partitions})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		loadArgPlanTables(t, d)
		return d
	}
	const n = 240 // rows of T; m has 3
	d := open(4)
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{"SELECT kdistance(X1, X2) FROM T", n},
		{"SELECT clusterscore(kdistance(X1, X2), kdistance(X2, X1)) FROM T", 3 * n},
		{"SELECT sqrt(abs(X1)), power(X1, 2) FROM T", 0},
		{"SELECT sum(kdistance(X1, X2)) FROM T", 2 * n},
		{"SELECT i FROM T WHERE kdistance(X1, X2) >= 0", n},
		{"SELECT i FROM T ORDER BY kdistance(X1, X2)", n},
		{"SELECT i, kdistance(X1, v) FROM T CROSS JOIN m WHERE kdistance(m.v, 0) < 1", 3 + n},
		{"SELECT kdistance(1, 2), linearregscore(1, 2, 3)", 2},
		{"SELECT kdistance(sum(X1), 0) FROM T", n + 1},
		// Float rows, the rows they refuse boxed (X3's NULLs), and an
		// execution whose model holds a NULL, all boxed; m has its three
		// rows until the INSERTs below.
		{"SELECT i, kdistance(X1, v) FROM T CROSS JOIN m", 3 * n},
		{"SELECT i, X3, clusterscore(kdistance(X1, X3), kdistance(X2, X1)) FROM T", 3 * n},
		{"SELECT i, kdistance(X1, v), clusterscore(kdistance(X1, v), X2) FROM T CROSS JOIN mn WHERE mn.j = 2", 3 * n},
		{"SELECT id, kdistance(X1, X2) FROM W", 40},
		{"INSERT INTO m VALUES (9, kdistance(1, 2))", 1},
		{"INSERT INTO m SELECT i, kdistance(X1, X2) FROM T WHERE kdistance(X1, 0) >= 0 AND i < 10", n + 10},
		{"SELECT CASE WHEN i < 10 THEN kdistance(X1, X2) ELSE 0 END FROM T", 10},
		{"SELECT i FROM T WHERE i >= 10 OR kdistance(X1, X2) >= 0", 10},
	} {
		before := obs.UDFCalls.Value()
		if _, err := d.Exec(c.sql); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := obs.UDFCalls.Value() - before; got != c.want {
			t.Errorf("%s: engine_udf_calls_total advanced by %d, want %d", c.sql, got, c.want)
		}
	}

	// A pooled worker starts every execution from zero.
	p, err := d.Engine().Prepare("SELECT kdistance(X1, ?) FROM T WHERE i < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, limit := range []int64{50, 240, 7} {
		before := obs.UDFCalls.Value()
		if _, err := p.Execute(NewDouble(1), NewBigInt(limit)); err != nil {
			t.Fatal(err)
		}
		if got := obs.UDFCalls.Value() - before; got != limit {
			t.Errorf("prepared, i < %d: engine_udf_calls_total advanced by %d", limit, got)
		}
	}

	// One partition scans T in insertion order, so a statement that
	// fails at row 100 has made a known number of calls: 100 when an
	// argument fails before the call, 101 when the call itself does.
	one := open(1)
	for _, c := range []struct {
		sql, wantErr string
		want         int64
	}{
		{"SELECT kdistance(X1, 1 / (i - 100)) FROM T", "division by zero", 100},
		{"SELECT kdistance(X1, coalesce(bad)) FROM T", "non-numeric", 101},
		{"SELECT sum(kdistance(X1, 1 / (i - 100))) FROM T", "division by zero", 200},
		// On float rows: the body that fails is counted, an enclosing
		// call it never returns to is not.
		{"SELECT i, kdistance(X1, X2, X4) FROM T", "kdistance expects 2d arguments", 1},
		{"SELECT i, clusterscore(X1, kdistance(X1, v, X2)) FROM T CROSS JOIN m", "kdistance expects 2d arguments", 1},
	} {
		before := obs.UDFCalls.Value()
		if _, err := one.Exec(c.sql); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: error %v, want one carrying %q", c.sql, err, c.wantErr)
		}
		if got := obs.UDFCalls.Value() - before; got != c.want {
			t.Errorf("%s: engine_udf_calls_total advanced by %d, want %d", c.sql, got, c.want)
		}
	}
}
