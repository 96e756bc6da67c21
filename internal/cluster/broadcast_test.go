package cluster

import (
	"context"
	"testing"

	"repro/internal/engine/db"
	"repro/internal/engine/sqlparser"
)

// lastQueryID is the id of the newest statement in d's query log.
func lastQueryID(d *db.DB) int64 {
	if recent := d.RecentQueries(); len(recent) > 0 {
		return recent[0].ID
	}
	return 0
}

// sqlSince returns, oldest first, the statement texts d logged after
// the statement numbered id.
func sqlSince(d *db.DB, id int64) []string {
	var out []string
	for _, r := range d.RecentQueries() {
		if r.ID > id {
			out = append([]string{r.SQL}, out...)
		}
	}
	return out
}

// TestBroadcastStatementText pins, byte for byte, the SQL the
// coordinator sends its shards (read back from each shard's query log)
// and logs for itself: a synthetic statement is rendered, a parsed one
// travels as the text it was parsed from.
func TestBroadcastStatementText(t *testing.T) {
	tc := newTestCluster(t, 2, 4)
	ctx := context.Background()
	num := func(n int64) sqlparser.Expr { return &sqlparser.NumberLit{IsInt: true, Int: n, Float: float64(n)} }
	parsed := func(sql string) sqlparser.Statement {
		t.Helper()
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	steps := []struct {
		stmt  sqlparser.Statement
		shard string // what every shard receives; "" = not compared
		local string // what the coordinator logs; "" = not compared
	}{
		{stmt: &sqlparser.CreateTable{Name: "bt", IfNotExists: true, Columns: []sqlparser.ColumnDef{{Name: "a", Type: "DOUBLE"}, {Name: "s", Type: "VARCHAR"}}},
			shard: "CREATE TABLE IF NOT EXISTS bt (a DOUBLE, s VARCHAR)"},
		{stmt: &sqlparser.CreateTable{Name: "bt2", Columns: []sqlparser.ColumnDef{{Name: "k", Type: "BIGINT"}}},
			shard: "CREATE TABLE bt2 (k BIGINT)"},
		{stmt: &sqlparser.Insert{Table: "bt", Columns: []string{"a", "s"}, Rows: [][]sqlparser.Expr{
			{num(1), &sqlparser.StringLit{Val: "it's"}},
			{&sqlparser.UnaryExpr{Op: "-", X: &sqlparser.NumberLit{Float: 2.5}}, &sqlparser.NullLit{}},
		}},
			local: "INSERT INTO bt (a, s) VALUES (1, 'it''s'), ((-2.5), NULL)"},
		{stmt: &sqlparser.Insert{Table: "bt2", Query: &sqlparser.Select{
			Items: []sqlparser.SelectItem{{Expr: &sqlparser.BinaryExpr{Op: "+", L: &sqlparser.ColumnRef{Name: "a"}, R: num(1)}, Alias: "k"}},
			From:  []sqlparser.TableRef{{Name: "bt"}},
		}},
			local: "INSERT INTO bt2 SELECT (a + 1) AS k FROM bt"},
		{stmt: &sqlparser.Select{
			Items: []sqlparser.SelectItem{{Expr: &sqlparser.ColumnRef{Name: "a"}}, {Expr: &sqlparser.ColumnRef{Name: "s"}, Alias: "t"}},
			From:  []sqlparser.TableRef{{Name: "bt", Alias: "b"}},
			Where: &sqlparser.BinaryExpr{Op: ">", L: &sqlparser.ColumnRef{Table: "b", Name: "a"}, R: num(0)},
		},
			shard: "SELECT a, s AS t FROM bt AS b WHERE (b.a > 0)",
			local: "SELECT a, s AS t FROM bt AS b WHERE (b.a > 0)"},
		{stmt: &sqlparser.DropTable{Name: "bt2"}, shard: "DROP TABLE bt2"},
		{stmt: &sqlparser.DropTable{Name: "bt2", IfExists: true}, shard: "DROP TABLE IF EXISTS bt2"},
		// Parsed statements travel as their source, spacing and case kept.
		{stmt: parsed("create  table BT3 ( a double )"), shard: "create  table BT3 ( a double )"},
		{stmt: parsed("select  a  from  BT3"), shard: "select  a  from  BT3", local: "select  a  from  BT3"},
		{stmt: parsed("insert into BT3  values (1),(2)"), local: "insert into BT3  values (1),(2)"},
		{stmt: parsed("drop table  if exists BT3"), shard: "drop table  if exists BT3"},
	}
	for _, s := range steps {
		before := make([]int64, len(tc.shardDBs))
		for i, sd := range tc.shardDBs {
			before[i] = lastQueryID(sd)
		}
		localBefore := lastQueryID(tc.coord.local)
		if _, err := tc.coord.runContext(ctx, s.stmt); err != nil {
			t.Fatalf("%T: %v", s.stmt, err)
		}
		if s.shard != "" {
			for i, sd := range tc.shardDBs {
				got := sqlSince(sd, before[i])
				if len(got) != 1 || got[0] != s.shard {
					t.Errorf("shard %d received %q, want exactly %q", i, got, s.shard)
				}
			}
		}
		if s.local != "" {
			got := sqlSince(tc.coord.local, localBefore)
			if len(got) == 0 || got[len(got)-1] != s.local {
				t.Errorf("coordinator logged %q, want last %q", got, s.local)
			}
		}
	}
}
