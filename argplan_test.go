package statsudf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// forEachLayout runs fn over the two ways a table is laid out, four
// partitions each: in memory, scanned as float or boxed rows, and on
// disk, where eligible scans read segment blocks and the rest the row
// log. Each layout runs with the deprecated Options.Columnar off and
// on, which must change nothing.
func forEachLayout(t *testing.T, fn func(t *testing.T, d *DB)) {
	for _, disk := range []bool{false, true} {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("disk=%v/columnar=%v", disk, columnar), func(t *testing.T) {
				opts := Options{Partitions: 4, Columnar: columnar}
				if disk {
					opts.Dir = t.TempDir()
				}
				d, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				fn(t, d)
			})
		}
	}
}

func engineTable(t *testing.T, d *DB, name string) *storage.Table {
	t.Helper()
	tab, err := d.Engine().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// canonResult renders a result with every DOUBLE as its bits, so equal
// strings mean bit-identical rows; row order is not part of it.
func canonResult(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var b strings.Builder
		for _, v := range r {
			if v.Type() == sqltypes.TypeDouble {
				f, _ := v.Float()
				fmt.Fprintf(&b, "D%016x|", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%v:%s|", v.Type(), v)
			}
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// runPrepared executes sql once through a prepared statement.
func runPrepared(d *DB, sql string, args ...Value) (*Result, error) {
	p, err := d.Engine().Prepare(sql)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Execute(args...)
}

// loadArgPlanTables creates T(i, g, X1..X4, b, s, bad) and the small
// model table m(j, v). X3 is NULL in every seventh row, X4 carries a −0
// and a NaN, b is BIGINT, s is a numeric VARCHAR and bad is a VARCHAR
// that does not parse in one row. W(id, X1, X2) holds ids on both sides
// of ±2⁵³, where a float64 stops holding every BIGINT, and the model
// table mn(j, v) a NULL v at j = 2.
func loadArgPlanTables(t *testing.T, d *DB) {
	t.Helper()
	for _, sql := range []string{
		"CREATE TABLE T (i BIGINT, g BIGINT, X1 DOUBLE, X2 DOUBLE, X3 DOUBLE, X4 DOUBLE, b BIGINT, s VARCHAR, bad VARCHAR)",
		"CREATE TABLE m (j BIGINT, v DOUBLE)",
		"INSERT INTO m VALUES (1, 0.5), (2, -3.25), (3, 8)",
		"CREATE TABLE W (id BIGINT, X1 DOUBLE, X2 DOUBLE)",
		"CREATE TABLE mn (j BIGINT, v DOUBLE)",
		"INSERT INTO mn VALUES (1, 0.5), (2, NULL)",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	rng := rand.New(rand.NewSource(18))
	rows := make([]Row, 240)
	for i := range rows {
		x3, x4, bad := NewDouble(rng.NormFloat64()), NewDouble(rng.NormFloat64()), NewVarChar("7")
		switch {
		case i%7 == 3:
			x3 = Null
		case i == 20:
			x4 = NewDouble(math.Copysign(0, -1))
		case i == 41:
			x4 = NewDouble(math.NaN())
		case i == 100:
			bad = NewVarChar("abc")
		}
		rows[i] = Row{
			NewBigInt(int64(i)), NewBigInt(int64(i % 5)),
			NewDouble(rng.NormFloat64() * 10), NewDouble(rng.NormFloat64() - 4), x3, x4,
			NewBigInt(int64(i%9 - 4)), NewVarChar(fmt.Sprintf(" %d.25 ", i%11)), bad,
		}
	}
	if err := engineTable(t, d, "T").Insert(rows...); err != nil {
		t.Fatal(err)
	}
	const edge = int64(1) << 53
	wide := []int64{edge + 1, -edge - 1, edge, -edge, edge + 2, math.MaxInt64, math.MinInt64 + 1, edge - 1}
	rows = rows[:0]
	for i := 0; i < 40; i++ {
		rows = append(rows, Row{NewBigInt(wide[i%len(wide)] - int64(i/len(wide))), NewDouble(rng.NormFloat64()), NewDouble(rng.NormFloat64())})
	}
	if err := engineTable(t, d, "W").Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateArgPlansAgree holds the three ways an aggregate argument
// slot is filled — a literal evaluated once, a bare column gathered by
// ordinal, anything else evaluated per row — to one result: every
// statement is paired with a twin whose column arguments are spelled so
// that they take the evaluator list (`X * 1` is the identity on every
// float including −0 and NaN, and keeps a BIGINT a BIGINT; a CASE hands
// a VARCHAR through untouched), and the two must agree bit for bit, or
// fail with the same error.
func TestAggregateArgPlansAgree(t *testing.T) {
	same := "CASE WHEN 1 = 1 THEN %s END"
	type stmt struct {
		sql  string
		args []Value
	}
	pairs := []struct {
		name         string
		gather, eval stmt
		wantErr      string
	}{
		{name: "nlq_list all DOUBLE, a NULL dimension, -0 and NaN",
			gather: stmt{sql: "SELECT nlq_list(4, 'triang', X1, X2, X3, X4) FROM T"},
			eval:   stmt{sql: "SELECT nlq_list(4, 'triang', X1 * 1, X2 * 1, X3 * 1, X4 * 1) FROM T"}},
		{name: "nlq_list BIGINT and numeric VARCHAR dimensions",
			gather: stmt{sql: "SELECT nlq_list(4, 'full', X1, b, s, X2) FROM T"},
			eval:   stmt{sql: "SELECT nlq_list(4, 'full', X1 * 1, b * 1, " + fmt.Sprintf(same, "s") + ", X2 * 1) FROM T"}},
		{name: "nlq_list numeric VARCHAR parsed by a CAST instead",
			gather: stmt{sql: "SELECT nlq_list(2, 'diag', s, X1) FROM T"},
			eval:   stmt{sql: "SELECT nlq_list(2, 'diag', CAST(s AS DOUBLE), X1 * 1) FROM T"}},
		{name: "nlq_list non-numeric VARCHAR",
			gather:  stmt{sql: "SELECT nlq_list(2, 'triang', X1, bad) FROM T"},
			eval:    stmt{sql: "SELECT nlq_list(2, 'triang', X1 * 1, " + fmt.Sprintf(same, "bad") + ") FROM T"},
			wantErr: "nlqudf: non-numeric dimension value abc"},
		{name: "literal, parameter, column and expression slots",
			gather: stmt{sql: "SELECT sum(X1), avg(b), sum(2), avg(?), sum(X1 + ?), count(X3), nlq_block(0, 2, 0, 2, X1, X2), nlq_block(?, 1, 1, 3, X1, X2, X4) FROM T",
				args: []Value{NewDouble(1.5), NewBigInt(3), NewBigInt(0)}},
			eval: stmt{sql: "SELECT sum(X1 * 1), avg(b * 1), sum(1 + 1), avg(1.5), sum(X1 * 1 + 3), count(X3 * 1), nlq_block(?, ?, ?, ?, X1 * 1, X2 * 1), nlq_block(0, 1, 1, 3, X1 * 1, X2 * 1, X4 * 1) FROM T",
				args: []Value{NewBigInt(0), NewBigInt(2), NewBigInt(0), NewBigInt(2)}}},
		{name: "GROUP BY",
			gather: stmt{sql: "SELECT g, nlq_list(3, 'triang', X1, X2, X3), sum(X2), min(b), count(*) FROM T GROUP BY g"},
			eval:   stmt{sql: "SELECT g, nlq_list(3, 'triang', X1 * 1, X2 * 1, X3 * 1), sum(X2 * 1), min(b * 1), count(*) FROM T GROUP BY g"}},
		{name: "nlq_list over BIGINTs on both sides of 2⁵³",
			gather: stmt{sql: "SELECT nlq_list(2, 'triang', id, X1), sum(id) FROM W"},
			eval:   stmt{sql: "SELECT nlq_list(2, 'triang', id * 1, X1 * 1), sum(id * 1) FROM W"}},
		{name: "join tail of two rows (bound slots)",
			gather: stmt{sql: "SELECT nlq_list(3, 'triang', X1, v, X2), sum(v), max(j) FROM T CROSS JOIN m WHERE m.j <= 2 AND X2 < -3"},
			eval:   stmt{sql: "SELECT nlq_list(3, 'triang', X1 * 1, v * 1, X2 * 1), sum(v * 1), max(j * 1) FROM T CROSS JOIN m WHERE m.j <= 2 AND X2 < -3"}},
	}
	forEachLayout(t, func(t *testing.T, d *DB) {
		loadArgPlanTables(t, d)
		for _, p := range pairs {
			got, gerr := runPrepared(d, p.gather.sql, p.gather.args...)
			want, werr := runPrepared(d, p.eval.sql, p.eval.args...)
			if p.wantErr != "" {
				if gerr == nil || werr == nil || !strings.Contains(gerr.Error(), p.wantErr) || !strings.Contains(werr.Error(), p.wantErr) {
					t.Fatalf("%s: errors %v and %v, want both to carry %q", p.name, gerr, werr, p.wantErr)
				}
				continue
			}
			if gerr != nil || werr != nil {
				t.Fatalf("%s: %v / %v", p.name, gerr, werr)
			}
			if g, w := canonResult(got), canonResult(want); g != w {
				t.Fatalf("%s:\ngather plan\n%s\nevaluator plan\n%s", p.name, g, w)
			}
			if len(got.Rows) == 0 || got.Rows[0][len(got.Rows[0])-1].IsNull() {
				t.Fatalf("%s: empty result %v", p.name, got.Rows)
			}
		}

		// One prepared statement, two executions: a literal slot is written
		// once per worker, so it must never be a slot a parameter fills.
		p, err := d.Engine().Prepare("SELECT sum(?), sum(X1 + ?), sum(3), avg(b) FROM T")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, a := range [][2]int64{{1, 10}, {2, 20}, {1, 10}} {
			got, err := p.Execute(NewBigInt(a[0]), NewBigInt(a[1]))
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.Exec(fmt.Sprintf("SELECT sum(%d), sum(X1 + %d), sum(3), avg(b) FROM T", a[0], a[1]))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonResult(got), canonResult(want); g != w {
				t.Fatalf("prepared with %v:\n%s\nliterals:\n%s", a, g, w)
			}
		}
	})
}

// cloneTable deep-copies a table's rows, partition by partition.
func cloneTable(t *testing.T, tab *storage.Table) [][]Row {
	t.Helper()
	out := make([][]Row, tab.Partitions())
	for p := range out {
		err := tab.ScanPartition(context.Background(), p, func(r sqltypes.Row) error {
			out[p] = append(out[p], r.Clone())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestScanConsumersDoNotRetainOrMutateRows pins the row-ownership
// contract of the scan consumers: a single-table statement reads the
// row the storage layer hands it in place — the decoder's reused buffer
// on disk, the stored row itself in memory — so a consumer that kept a
// reference would see later rows' values (wrong group keys, DISTINCT
// sets or output rows below), and one that wrote through it would
// change the table.
func TestScanConsumersDoNotRetainOrMutateRows(t *testing.T) {
	forEachLayout(t, func(t *testing.T, d *DB) {
		for _, sql := range []string{
			"CREATE TABLE R (k BIGINT, name VARCHAR, x DOUBLE)",
			"CREATE TABLE m (j BIGINT, v DOUBLE)",
			"INSERT INTO m VALUES (2, 0.5), (7, -1), (11, 4)",
		} {
			if _, err := d.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		const n = 400
		rows := make([]Row, n)
		var wantProj, wantJoin []string
		groups := map[string][2]float64{} // name|k → count, sum(x)
		var sumX, sumXX float64
		for i := range rows {
			k, name, x := int64(i%10), fmt.Sprintf("name-%d", i%7), float64(i)+0.5
			rows[i] = Row{NewBigInt(k), NewVarChar(name), NewDouble(x)}
			wantProj = append(wantProj, fmt.Sprintf("%d|%s|%v", k, name, x))
			g := groups[fmt.Sprintf("%s|%d", name, k)]
			groups[fmt.Sprintf("%s|%d", name, k)] = [2]float64{g[0] + 1, g[1] + x}
			sumX += x
			sumXX += x * x
			switch k {
			case 2:
				wantJoin = append(wantJoin, fmt.Sprintf("%s|%v|0.5", name, x))
			case 7:
				wantJoin = append(wantJoin, fmt.Sprintf("%s|%v|-1", name, x))
			}
		}
		tab := engineTable(t, d, "R")
		if err := tab.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		before := cloneTable(t, tab)

		render := func(res *Result) []string {
			out := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				cells := make([]string, len(r))
				for j, v := range r {
					cells[j] = v.String()
				}
				out[i] = strings.Join(cells, "|")
			}
			sort.Strings(out)
			return out
		}
		query := func(sql string) *Result {
			t.Helper()
			res, err := d.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return res
		}
		equal := func(what string, got, want []string) {
			t.Helper()
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
			}
		}

		equal("projection", render(query("SELECT k, name, x FROM R")), wantProj)

		var wantGroups []string
		for key, g := range groups {
			wantGroups = append(wantGroups, fmt.Sprintf("%s|%v|%v", key, g[0], g[1]))
		}
		equal("GROUP BY", render(query("SELECT name, k, count(*), sum(x) FROM R GROUP BY name, k")), wantGroups)

		equal("count(DISTINCT)", render(query("SELECT count(DISTINCT name), count(DISTINCT x), count(DISTINCT k) FROM R")),
			[]string{fmt.Sprintf("7|%d|10", n)})

		v, err := query("SELECT nlq_list(1, 'triang', x) FROM R").Value()
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Unpack(v.Str())
		if err != nil {
			t.Fatal(err)
		}
		if s.N != n || s.L[0] != sumX || s.Q[0] != sumXX || s.Min[0] != 0.5 || s.Max[0] != n-0.5 {
			t.Fatalf("nlq_list: n=%v L=%v Q=%v min=%v max=%v, want %d %v %v", s.N, s.L[0], s.Q[0], s.Min[0], s.Max[0], n, sumX, sumXX)
		}

		equal("join with a one-table tail", render(query("SELECT name, x, v FROM R CROSS JOIN m WHERE R.k = m.j")), wantJoin)

		after := cloneTable(t, tab)
		for p := range before {
			if len(after[p]) != len(before[p]) {
				t.Fatalf("partition %d: %d rows, had %d", p, len(after[p]), len(before[p]))
			}
			for i, r := range before[p] {
				for c := range r {
					if after[p][i][c] != r[c] {
						t.Fatalf("partition %d row %d column %d: %v, was %v", p, i, c, after[p][i][c], r[c])
					}
				}
			}
		}
	})
}
