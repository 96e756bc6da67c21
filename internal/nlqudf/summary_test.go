package nlqudf

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
)

// summarySchema has a VARCHAR no summary reads, three DOUBLE columns and
// a BIGINT one the summaries read.
var summarySchema = sqltypes.MustSchema(
	sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt},
	sqltypes.Column{Name: "tag", Type: sqltypes.TypeVarChar},
	sqltypes.Column{Name: "X1", Type: sqltypes.TypeDouble},
	sqltypes.Column{Name: "X2", Type: sqltypes.TypeDouble},
	sqltypes.Column{Name: "k", Type: sqltypes.TypeBigInt},
	sqltypes.Column{Name: "X3", Type: sqltypes.TypeDouble},
)

// summaryTables creates three tables of summarySchema in d: X holds 500
// rows with NULLs in every read column and in unread ones, S two rows
// over three partitions (so one partition is empty), E none.
func summaryTables(t *testing.T, d *db.DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name string
		n    int
	}{{"X", 500}, {"S", 2}, {"E", 0}} {
		name, n := tc.name, tc.n
		tab, err := d.CreateTable(name, summarySchema)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]sqltypes.Row, n)
		for r := range rows {
			row := sqltypes.Row{sqltypes.NewBigInt(int64(r)), sqltypes.NewVarChar(fmt.Sprint("t", r%5)),
				sqltypes.NewDouble(rng.NormFloat64()*1e3 + 7), sqltypes.NewDouble(rng.Float64() - 0.5),
				sqltypes.NewBigInt(int64(rng.Intn(40) - 20)), sqltypes.NewDouble(rng.ExpFloat64())}
			switch {
			case r%7 == 3:
				row[2] = sqltypes.Null
			case r%11 == 5:
				row[4] = sqltypes.Null
			case r%13 == 1:
				row[5] = sqltypes.Null
			case r%4 == 2:
				row[0], row[1] = sqltypes.Null, sqltypes.Null // unread: the row is kept
			}
			rows[r] = row
		}
		if n > 0 {
			if err := tab.Insert(rows...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// selectRows runs the SELECT sql over d's tables with the block source
// declined (exec.Env.Columnar off): the row arm that a statement d runs
// from segment blocks is checked against.
func selectRows(t *testing.T, d *db.DB, sql string) *exec.Result {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Select(context.Background(), stmt.(*sqlparser.Select), &exec.Env{Catalog: d, Funcs: d.Scalars(), Aggs: d.Aggregates()})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// tableDir is a fresh directory for an on-disk database, "" for one in
// memory.
func tableDir(t *testing.T, disk bool) string {
	if disk {
		return t.TempDir()
	}
	return ""
}

// TestSummaryIsTheStatement: a summary the cache rebuilds is, bit for
// bit, the one the paper's statement computes — core.Unpack of SELECT
// nlq_list(d, 'mt', ...) FROM X — in memory and on disk, where the
// rebuild reads segment blocks and the statement is run with the block
// source declined, for every matrix type, over NULL rows, a BIGINT
// column, an empty partition and an empty table (where the statement is
// NULL and the summary empty) — and still after rows are appended to
// warm summaries, which read only those from the row log, against the
// statement from blocks. A d = 70 summary, which no nlq_list call can
// compute, is the same in memory and from blocks.
func TestSummaryIsTheStatement(t *testing.T) {
	ctx := context.Background()
	cols := []string{"X1", "k", "X2", "X3"}
	for _, disk := range []bool{false, true} {
		dir := tableDir(t, disk)
		d := db.Open(db.Options{Partitions: 3, Dir: dir})
		if err := Register(d); err != nil {
			t.Fatal(err)
		}
		summaryTables(t, d)
		for _, table := range []string{"X", "S", "E"} {
			for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
				name := fmt.Sprintf("dir %q %s %v", dir, table, mt)
				s, hit, err := d.SummaryNLQ(ctx, table, cols, mt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if hit {
					t.Fatalf("%s: a first summary read hit the cache", name)
				}
				v := selectRows(t, d, sqlgen.NLQUDFQuery(table, cols, mt, sqlgen.ListStyle)).Rows[0][0]
				if table == "E" {
					empty, _ := core.NewNLQ(len(cols), mt)
					if !v.IsNull() || s.Pack() != empty.Pack() {
						t.Fatalf("%s: statement %v, summary %s; want NULL and an empty summary", name, v, s.Pack())
					}
					continue
				}
				if got := s.Pack(); got != v.Str() {
					t.Fatalf("%s: summary %s\nstatement %s", name, got, v.Str())
				}
				if table == "X" && (s.N < 300 || s.N >= 500) {
					t.Fatalf("%s: folded %v rows; the fixture should skip some and keep most", name, s.N)
				}
			}
		}
		// Rows appended to warm summaries: each resumes its partitions
		// over them and is still the statement's summary.
		x, err := d.Table("X")
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Insert(sqltypes.Row{sqltypes.NewBigInt(500), sqltypes.Null, sqltypes.NewDouble(2.5),
			sqltypes.NewDouble(-1), sqltypes.NewBigInt(3), sqltypes.NewDouble(0.125)}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec("INSERT INTO X SELECT i + 1000, tag, X2, X1, k, X3 FROM X WHERE i < 40"); err != nil {
			t.Fatal(err)
		}
		for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
			name := fmt.Sprintf("dir %q X %v after appends", dir, mt)
			s, hit, err := d.SummaryNLQ(ctx, "X", cols, mt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := d.Exec(sqlgen.NLQUDFQuery("X", cols, mt, sqlgen.ListStyle))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !hit || s.Pack() != res.Rows[0][0].Str() {
				t.Fatalf("%s: hit=%v\nsummary %s\nstatement %s", name, hit, s.Pack(), res.Rows[0][0].Str())
			}
		}
	}

	// d = 70: beyond nlq_list's MaxD, the same from both sources.
	const dims = 70
	var want string
	for _, disk := range []bool{false, true} {
		dir := tableDir(t, disk)
		d := db.Open(db.Options{Partitions: 3, Dir: dir})
		wide := make([]sqltypes.Column, dims)
		names := make([]string, dims)
		for a := range wide {
			names[a] = fmt.Sprintf("W%d", a+1)
			wide[a] = sqltypes.Column{Name: names[a], Type: sqltypes.TypeDouble}
		}
		tab, err := d.CreateTable("W", sqltypes.MustSchema(wide...))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(70))
		rows := make([]sqltypes.Row, 200)
		for r := range rows {
			rows[r] = make(sqltypes.Row, dims)
			for a := range rows[r] {
				rows[r][a] = sqltypes.NewDouble(rng.NormFloat64())
			}
			if r%9 == 4 {
				rows[r][r%dims] = sqltypes.Null
			}
		}
		if err := tab.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		s, _, err := d.SummaryNLQ(ctx, "W", names, core.Triangular)
		if err != nil {
			t.Fatalf("dir %q: d = %d: %v", dir, dims, err)
		}
		got := s.Pack()
		if want == "" {
			want = got
			if s.N == 0 || s.N == 200 {
				t.Fatalf("d = %d summary folded %v rows", dims, s.N)
			}
		} else if got != want {
			t.Fatalf("dir %q: d = %d summary differs from the in-memory one", dir, dims)
		}
	}
}

// TestSummaryRepeatedColumns: a summary may read one column twice, like
// nlq_list(2, 'triang', X1, X1) does; in memory and from segment blocks
// on disk, it is the statement's summary with the block source declined.
func TestSummaryRepeatedColumns(t *testing.T) {
	ctx := context.Background()
	for _, disk := range []bool{false, true} {
		dir := tableDir(t, disk)
		d := db.Open(db.Options{Partitions: 3, Dir: dir})
		if err := Register(d); err != nil {
			t.Fatal(err)
		}
		summaryTables(t, d)
		for _, cols := range [][]string{{"X1", "X1"}, {"X1", "X2", "X1"}, {"k", "X3", "k", "k"}} {
			name := fmt.Sprintf("dir %q %s", dir, strings.Join(cols, ","))
			s, _, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := selectRows(t, d, sqlgen.NLQUDFQuery("X", cols, core.Triangular, sqlgen.ListStyle)).Rows[0][0].Str()
			if got := s.Pack(); got != want {
				t.Fatalf("%s: summary %s\nstatement %s", name, got, want)
			}
		}
	}
}

// TestAggregateBlockSource: on disk the paper's statements — nlq_list,
// one column read twice beside a literal, and Table 6's blocked
// nlq_block calls — fold blocks, say so in their scan[pN]
// spans, in EXPLAIN ANALYZE and in sys.spans, and give byte for byte
// the results of the same statements with the block source declined; in
// memory, where blocks are never offered, every partition reads float
// rows and nothing counts as a fallback.
func TestAggregateBlockSource(t *testing.T) {
	ctx := context.Background()
	plan, err := core.PlanBlocks(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	statements := []string{
		sqlgen.NLQUDFQuery("X", []string{"X1", "k", "X2", "X3"}, core.Triangular, sqlgen.ListStyle),
		"SELECT nlq_list(2, 'full', X1, X1), nlq_list(3, 'diag', X3, X2, 0.5) FROM X",
		sqlgen.NLQBlockQuery("X", []string{"X1", "k", "X2", "X3"}, plan),
	}
	for _, c := range []struct {
		name    string
		dir     string
		sources []string
		stale   int64
	}{
		{"mem", "", []string{"float", "float", "float"}, 0},
		{"disk", t.TempDir(), []string{"block", "block", "block"}, 0},
	} {
		d := db.Open(db.Options{Partitions: 3, Dir: c.dir, TraceSampleN: 1})
		if err := Register(d); err != nil {
			t.Fatal(err)
		}
		summaryTables(t, d)
		x, err := d.Table("X")
		if err != nil {
			t.Fatal(err)
		}
		// A summary rebuild folds every row of X once, like any
		// aggregate call, whichever source it reads.
		for _, rebuild := range []func() error{
			func() error {
				_, _, err := d.SummaryNLQ(ctx, "X", []string{"X1", "X3"}, core.Full)
				return err
			},
			func() error { // the same scan with the block source declined
				scan, err := exec.PrepareTableNLQ(x, []int{2, 5}, core.Full, 0, false)
				if err == nil {
					_, err = scan.Read(ctx, nil, make([]*core.NLQ, x.Partitions()))
				}
				return err
			},
		} {
			calls := obs.UDFCalls.Value()
			if err := rebuild(); err != nil {
				t.Fatal(err)
			}
			if got := obs.UDFCalls.Value() - calls; got != 500 {
				t.Fatalf("%s: a summary rebuild over 500 rows counted %d UDF calls", c.name, got)
			}
		}
		for _, sql := range statements {
			calls := obs.UDFCalls.Value()
			want := selectRows(t, d, sql)
			calls = 2*obs.UDFCalls.Value() - calls
			falls := obs.ColumnarFallbacks.Value()
			got, err := d.Exec(sql)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, sql, err)
			}
			if calls != obs.UDFCalls.Value() {
				t.Fatalf("%s, %s: UDF calls counted differ between the block source and float rows", c.name, sql)
			}
			if len(got.Rows) != 1 || len(got.Rows[0]) != len(want.Rows[0]) {
				t.Fatalf("%s, %s: %v", c.name, sql, got.Rows)
			}
			for k, v := range got.Rows[0] {
				if v.IsNull() || v.Str() != want.Rows[0][k].Str() {
					t.Fatalf("%s, %s: item %d = %v with blocks offered, %v with them declined", c.name, sql, k, v, want.Rows[0][k])
				}
			}
			sources := make([]string, 3)
			for _, sp := range got.Stats.Root.SpanByName("scan").Children {
				if p := strings.TrimSuffix(strings.TrimPrefix(sp.Name, "scan[p"), "]"); p != sp.Name {
					sources[p[0]-'0'] = sp.Source
				}
			}
			if !reflect.DeepEqual(sources, c.sources) {
				t.Fatalf("%s, %s: partitions scanned %v, want %v", c.name, sql, sources, c.sources)
			}
			if moved := obs.ColumnarFallbacks.Value() - falls; moved != c.stale {
				t.Fatalf("%s, %s: %d fallbacks counted for %d stale partitions", c.name, sql, moved, c.stale)
			}
			if tree := got.Stats.Root.RenderTree(); !strings.Contains(tree, "source="+c.sources[0]) || strings.Contains(tree, "source=row") {
				t.Fatalf("%s, %s: EXPLAIN ANALYZE tree:\n%s", c.name, sql, tree)
			}
			spans, err := d.Exec("SELECT name, source FROM sys.spans WHERE trace_id = '" + got.Stats.TraceID + "' ORDER BY name")
			if err != nil {
				t.Fatal(err)
			}
			var spanSources []string
			for _, r := range spans.Rows {
				if strings.HasPrefix(r[0].Str(), "scan[p") {
					spanSources = append(spanSources, r[1].Str())
				}
			}
			if !reflect.DeepEqual(spanSources, c.sources) {
				t.Fatalf("%s, %s: sys.spans sources %v, want %v", c.name, sql, spanSources, c.sources)
			}
		}
	}
}
