package sqlparser

import (
	"reflect"
	"strings"
	"testing"
)

// statementSeeds covers every statement kind the parser accepts.
var statementSeeds = []string{
	"SELECT 1",
	"SELECT a, b FROM t WHERE a > 1 AND b < 'x' GROUP BY a ORDER BY b DESC LIMIT 3",
	"SELECT sum(x*y) AS sxy, count(*) FROM points GROUP BY grp HAVING count(*) > 2",
	"SELECT CASE WHEN a IS NULL THEN 0 ELSE a END FROM t",
	"SELECT * FROM a JOIN b ON a.id = b.id WHERE a.v BETWEEN 1 AND 2 OR b.v IN (1, 2, 3)",
	"SELECT CAST(a AS DOUBLE) FROM t WHERE NOT (a = 1)",
	"select nlq_str(x1, x2) from xy",
	"SELECT -1.5e10, 'it''s', true, null",
	"SELECT t.*, count(DISTINCT a) FROM t AS u CROSS JOIN v WHERE a = ? ORDER BY 1, b + ?",
	"CREATE TABLE IF NOT EXISTS t (a DOUBLE, b BIGINT, s VARCHAR)",
	"create table t (a double)",
	"DROP TABLE t",
	"DROP TABLE IF EXISTS t",
	"CREATE VIEW v AS SELECT a, b * 2 AS c FROM t WHERE a > 0",
	"DROP VIEW v",
	"DROP VIEW IF EXISTS v",
	"INSERT INTO t VALUES (1, 'x', NULL), (-2.5, 'it''s', TRUE)",
	"INSERT INTO t (a, b) VALUES (?, ?), (3, ?)",
	"INSERT INTO t (a) SELECT a + 1 FROM u WHERE a IN (1, 2)",
}

// FuzzParseRoundTrip feeds arbitrary byte soup to the parser. Every
// accepted statement, of any kind, must survive a print → re-parse →
// print cycle with a fixed point: String() of the re-parsed tree must
// equal String() of the original tree. A mismatch means the printer
// emits SQL the parser reads back differently — exactly the bug class
// that corrupts the plan cache, whose keys are printed statements, the
// stored view catalog, and the DDL a coordinator broadcasts.
func FuzzParseRoundTrip(f *testing.F) {
	for _, sql := range statementSeeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		printed := stmt.String()
		stmt2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printer emitted SQL the parser rejects\n input: %q\nprinted: %q\n  error: %v", sql, printed, err)
		}
		if reflect.TypeOf(stmt2) != reflect.TypeOf(stmt) {
			t.Fatalf("re-parse of a printed %T produced %T\n input: %q\nprinted: %q", stmt, stmt2, sql, printed)
		}
		if again := stmt2.String(); again != printed {
			t.Fatalf("print → parse → print is not a fixed point\n input: %q\n first: %q\nsecond: %q", sql, printed, again)
		}
		// Original source wins; without one the statement prints.
		if got := StatementText(stmt); got == "" || !strings.Contains(sql, got) {
			t.Fatalf("a parsed statement's text is %q, want a slice of its source %q", got, sql)
		}
		SetStatementSource(stmt2, "")
		if got := StatementText(stmt2); got != printed {
			t.Fatalf("a sourceless statement's text is %q, want %q", got, printed)
		}
	})
}

// FuzzWalkRewrite checks the two tree walkers against each other on
// arbitrary accepted statements: a Rewrite that replaces nothing prints
// the same text, Walk meets as many distinct `?` slots as CountParams
// reports, and neither touches the original tree.
func FuzzWalkRewrite(f *testing.F) {
	for _, sql := range statementSeeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		before := stmt.String()
		slots := map[int]bool{}
		walkStatementExprs(stmt, func(e Expr) {
			Walk(e, func(x Expr) bool {
				if pr, ok := x.(*ParamRef); ok {
					slots[pr.Index] = true
				}
				return true
			})
			cp := Rewrite(e, func(Expr) (Expr, bool) { return nil, false })
			if cp.String() != e.String() {
				t.Fatalf("identity Rewrite prints %q, want %q\n input: %q", cp, e, sql)
			}
		})
		if n := CountParams(stmt); n != len(slots) {
			t.Fatalf("Walk met %d parameter slots, CountParams reports %d\n input: %q", len(slots), n, sql)
		}
		if after := stmt.String(); after != before {
			t.Fatalf("walking changed the statement\nbefore: %q\n after: %q", before, after)
		}
	})
}

// FuzzBindParams checks the prepared-statement substitution invariants
// on arbitrary accepted statements: CountParams slots can always be
// bound with that many literals, binding leaves zero remaining slots,
// and the original tree is untouched (its slot count is stable) — the
// plan cache shares the unbound tree across executions.
func FuzzBindParams(f *testing.F) {
	f.Add("SELECT a FROM t WHERE a = ? AND b > ?")
	f.Add("INSERT INTO t (a, b) VALUES (?, ?), (3, ?)")
	f.Add("SELECT * FROM t WHERE a IN (?, ?, ?) LIMIT 1")
	f.Add("SELECT CASE WHEN a = ? THEN ? ELSE 0 END FROM t")
	f.Add("SELECT 1")
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		n := CountParams(stmt)
		if n < 0 {
			t.Fatalf("CountParams returned %d for %q", n, sql)
		}
		vals := make([]Expr, n)
		for i := range vals {
			vals[i] = &NumberLit{IsInt: true, Int: int64(i)}
		}
		bound, err := BindParams(stmt, vals)
		if err != nil {
			// Only SELECT/INSERT support parameters; other statements
			// must carry slots for binding to fail.
			if n == 0 {
				t.Fatalf("BindParams failed on a parameterless statement %q: %v", sql, err)
			}
			return
		}
		if left := CountParams(bound); left != 0 {
			t.Fatalf("bound statement still has %d parameter slots\n input: %q", left, sql)
		}
		if after := CountParams(stmt); after != n {
			t.Fatalf("BindParams mutated the shared original: %d slots before, %d after\n input: %q", n, after, sql)
		}
	})
}
