package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
	"repro/pkg/client"
)

// TestScatterStatementText pins, byte for byte, the INSERT text a shard
// receives when the coordinator routes rows to it (read back from each
// shard's query log): materialized INSERT … SELECT values at the edges
// of every literal form, an explicit column list, re-rendered literal
// VALUES rows, and the 256-row batch split.
func TestScatterStatementText(t *testing.T) {
	tc := newTestCluster(t, 2, 4)
	ctx := context.Background()
	run := func(sql string) {
		t.Helper()
		if _, err := tc.coord.ExecScriptContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// inserts returns the INSERT statements each shard logged after mark.
	marks := func() []int64 {
		out := make([]int64, len(tc.shardDBs))
		for i, sd := range tc.shardDBs {
			out[i] = lastQueryID(sd)
		}
		return out
	}
	inserts := func(mark []int64) [][]string {
		out := make([][]string, len(tc.shardDBs))
		for i, sd := range tc.shardDBs {
			for _, sql := range sqlSince(sd, mark[i]) {
				if strings.HasPrefix(sql, "INSERT") {
					out[i] = append(out[i], sql)
				}
			}
		}
		return out
	}
	requireTexts := func(name string, mark []int64, want [][]string) {
		t.Helper()
		got := inserts(mark)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: shard %d received %d INSERTs %q, want %d", name, i, len(got[i]), got[i], len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Errorf("%s: shard %d statement %d\n got %q\nwant %q", name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	// Source rows go straight into shard 0's storage so every value is
	// exact (a literal INSERT cannot spell -0.0 or min int64).
	run("CREATE TABLE src (k BIGINT, f DOUBLE, v VARCHAR); CREATE TABLE dst (k BIGINT, f DOUBLE, v VARCHAR, b VARCHAR)")
	src, err := tc.shardDBs[0].Table("src")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(
		sqltypes.Row{sqltypes.NewBigInt(math.MinInt64), sqltypes.NewDouble(math.Copysign(0, -1)), sqltypes.NewVarChar("it's")},
		sqltypes.Row{sqltypes.NewBigInt(-1), sqltypes.NewDouble(5.0), sqltypes.Null},
		sqltypes.Row{sqltypes.NewBigInt(0), sqltypes.NewDouble(1e-300), sqltypes.NewVarChar("")},
		sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewDouble(1e21), sqltypes.NewVarChar("x")},
		sqltypes.Row{sqltypes.NewBigInt(math.MaxInt64), sqltypes.Null, sqltypes.NewVarChar("a")},
	); err != nil {
		t.Fatal(err)
	}

	// Materialized values: rows 0,1 land on shard 0 (logical
	// partitions 0,1), rows 2,3 on shard 1 (partitions 2,3).
	mark := marks()
	run("INSERT INTO dst (k, f, v, b) SELECT k, f, v, f > 1 FROM src WHERE k > -2 ORDER BY k")
	requireTexts("insert-select", mark, [][]string{
		{"INSERT INTO dst (k, f, v, b) VALUES (-1, 5, NULL, TRUE), (0, 1e-300, '', FALSE)"},
		{"INSERT INTO dst (k, f, v, b) VALUES (1, 1e+21, 'x', TRUE), (9223372036854775807, NULL, 'a', NULL)"},
	})
	run("DROP TABLE dst; CREATE TABLE dst (k BIGINT, f DOUBLE, v VARCHAR)")
	mark = marks()
	run("INSERT INTO dst SELECT k, f, v FROM src WHERE k < -1")
	requireTexts("min int64 / -0.0", mark, [][]string{{"INSERT INTO dst VALUES (-9223372036854775808, -0, 'it''s')"}, nil})

	// A non-finite double has no literal form and is refused; the same
	// spelling in a VARCHAR is just a string.
	if err := src.Insert(
		sqltypes.Row{sqltypes.NewBigInt(5), sqltypes.NewDouble(math.Inf(1)), sqltypes.NewVarChar("NaN")},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.coord.ExecScriptContext(ctx, "INSERT INTO dst SELECT k, f, v FROM src WHERE k = 5"); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("routing +Inf: err = %v, want the non-finite refusal", err)
	}
	mark = marks()
	run("INSERT INTO dst SELECT k, 1.5, v FROM src WHERE k = 5")
	requireTexts("NaN string", mark, [][]string{{"INSERT INTO dst VALUES (5, 1.5, 'NaN')"}, nil})

	// Literal VALUES rows are re-rendered expression by expression.
	run("DROP TABLE dst; CREATE TABLE dst (k BIGINT, f DOUBLE, v VARCHAR)")
	mark = marks()
	run("insert into dst (v, k, f) values ('o''k', 1+2, -0.0), (null, 7, 5.0), ('', -3, 1e-300)")
	requireTexts("literals", mark, [][]string{
		{"INSERT INTO dst (v, k, f) VALUES ('o''k', (1 + 2), (-0)), (NULL, 7, 5)"},
		{"INSERT INTO dst (v, k, f) VALUES ('', (-3), 1e-300)"},
	})

	// 515 rows over 2 shards = 258 + 257: one full 256-row batch and a
	// remainder statement per shard.
	run("CREATE TABLE big (k BIGINT)")
	perShard := make([][]string, 2)
	var all []string
	for r := 0; r < 515; r++ {
		lit := fmt.Sprintf("(%d)", r)
		all = append(all, lit)
		perShard[(r%4)/2] = append(perShard[(r%4)/2], lit)
	}
	mark = marks()
	run("INSERT INTO big VALUES " + strings.Join(all, ", "))
	var wantBig [][]string
	for _, lits := range perShard {
		wantBig = append(wantBig, []string{
			"INSERT INTO big VALUES " + strings.Join(lits[:scatterBatch], ", "),
			"INSERT INTO big VALUES " + strings.Join(lits[scatterBatch:], ", "),
		})
	}
	requireTexts("batch split", mark, wantBig)
}

// TestMergeAggRowsRejectsMalformedPartials: a shard partial that is not
// exactly one row of the pushed width is an error, never a panic — a
// zero-row partial used to index its missing first row while formatting
// the message, which killed the coordinator process.
func TestMergeAggRowsRejectsMalformedPartials(t *testing.T) {
	plan := &pushPlan{items: []pushItem{{}}, nPushed: 1}
	one := sqltypes.Row{sqltypes.NewBigInt(1)}
	for name, rows := range map[string][]sqltypes.Row{
		"zero rows": nil,
		"two rows":  {one, one},
		"too wide":  {{sqltypes.NewBigInt(1), sqltypes.NewBigInt(2)}},
	} {
		partials := []*client.Rows{{Rows: []sqltypes.Row{one}}, {Rows: rows}}
		if res, err := mergeAggRows(plan, partials); err == nil {
			t.Errorf("%s: merged %v, want an error", name, res.Rows)
		}
	}
}
