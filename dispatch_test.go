package statsudf

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
)

// canonOrdered renders a result's schema and rows with every DOUBLE as
// its bits, keeping the row order, so equal strings mean the same
// columns and bit-identical rows in the same order.
func canonOrdered(schema *sqltypes.Schema, rows []Row) string {
	var b strings.Builder
	for _, c := range schema.Columns {
		fmt.Fprintf(&b, "%s:%v,", c.Name, c.Type)
	}
	for _, r := range rows {
		b.WriteByte('\n')
		for _, v := range r {
			if v.Type() == sqltypes.TypeDouble {
				f, _ := v.Float()
				fmt.Fprintf(&b, "D%016x|", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%v:%s|", v.Type(), v)
			}
		}
	}
	return b.String()
}

// inlineArgs spells each `?` of sql as the literal of its argument, the
// way the coordinator routes values as text.
func inlineArgs(sql string, args []Value) string {
	var b strings.Builder
	for _, a := range args {
		i := strings.IndexByte(sql, '?')
		b.WriteString(sql[:i])
		b.WriteString(exec.LiteralExpr(a).String())
		sql = sql[i+1:]
	}
	b.WriteString(sql)
	return b.String()
}

// TestDispatchPathsAgree pins the four ways statement text reaches the
// engine to one answer: a prepared handle executed with arguments,
// QueryContext with the same arguments, Exec of the text with the
// arguments inlined as literals, and QueryStreamContext of that text.
// Every shape — a point `?`, the paper's nlq_list aggregate, GROUP BY, a
// join tail, ORDER BY/LIMIT and an INSERT ... SELECT with `?` — must
// come out bit for bit the same on every path and every table layout.
func TestDispatchPathsAgree(t *testing.T) {
	shapes := []struct {
		name    string
		sql     string
		args    []Value
		ordered bool // row order is part of the answer
	}{
		{name: "point", sql: "SELECT i, X1, X2 FROM T WHERE i = ?", args: []Value{NewBigInt(17)}},
		{name: "nlq_list", sql: "SELECT nlq_list(2, 'triang', X1 + ?, X2) AS s FROM T WHERE g < ?",
			args: []Value{NewDouble(0.375), NewBigInt(4)}},
		{name: "group by", sql: "SELECT g, count(*) AS n, sum(X1 * ?) AS s FROM T WHERE i > ? GROUP BY g",
			args: []Value{NewDouble(-2.5), NewBigInt(30)}},
		{name: "join tail", sql: "SELECT T.i, T.X1 * m.v AS p FROM T, m WHERE m.j = ? AND T.i < ?",
			args: []Value{NewBigInt(2), NewBigInt(50)}},
		{name: "order by limit", sql: "SELECT i, X2 + ? AS y FROM T WHERE X1 > ? ORDER BY y DESC, i LIMIT 9",
			args: []Value{NewDouble(1.25), NewDouble(-3)}, ordered: true},
		{name: "insert", sql: "INSERT INTO tgt SELECT i, X1 * ? FROM T WHERE g = ?",
			args: []Value{NewDouble(0.5), NewBigInt(3)}},
	}
	forEachLayout(t, func(t *testing.T, d *DB) {
		loadArgPlanTables(t, d)
		eng := d.Engine()
		ctx := context.Background()
		for _, sh := range shapes {
			t.Run(sh.name, func(t *testing.T) {
				insert := strings.HasPrefix(sh.sql, "INSERT")
				inlined := inlineArgs(sh.sql, sh.args)
				paths := []struct {
					name string
					run  func() (*Result, error)
				}{
					{"Prepare.Execute", func() (*Result, error) {
						p, err := eng.Prepare(sh.sql)
						if err != nil {
							return nil, err
						}
						defer p.Close()
						return p.ExecuteContext(ctx, sh.args...)
					}},
					{"QueryContext", func() (*Result, error) { return eng.QueryContext(ctx, sh.sql, nil, sh.args...) }},
					{"Exec inlined", func() (*Result, error) { return eng.Exec(inlined) }},
					{"QueryStreamContext", func() (*Result, error) {
						var mu sync.Mutex
						var rows []Row
						schema, _, err := eng.QueryStreamContext(ctx, inlined, func(r Row) error {
							mu.Lock()
							defer mu.Unlock()
							rows = append(rows, append(Row(nil), r...))
							return nil
						})
						return &Result{Schema: schema, Rows: rows}, err
					}},
				}
				var want string
				for i, path := range paths {
					if insert {
						if _, err := d.Exec("CREATE TABLE tgt (i BIGINT, v DOUBLE)"); err != nil {
							t.Fatal(err)
						}
					}
					res, err := path.run()
					if err != nil {
						t.Fatalf("%s: %v", path.name, err)
					}
					if insert {
						if res, err = d.Exec("SELECT i, v FROM tgt"); err != nil {
							t.Fatal(err)
						}
						if _, err := d.Exec("DROP TABLE tgt"); err != nil {
							t.Fatal(err)
						}
					}
					got := canonOrdered(res.Schema, res.Rows)
					if !sh.ordered {
						got = canonOrdered(res.Schema, nil) + "\n" + canonResult(res)
					}
					if len(res.Rows) == 0 {
						t.Fatalf("%s: no rows", path.name)
					}
					if i == 0 {
						want = got
					} else if got != want {
						t.Fatalf("%s disagrees with %s:\n%s\nwant\n%s", path.name, paths[0].name, got, want)
					}
				}
			})
		}
	})
}
