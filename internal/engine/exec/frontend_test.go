package exec_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
	"repro/internal/nlqudf"
	"repro/internal/score"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

var updateFrontEnd = flag.Bool("update-frontend", false, "rewrite testdata/frontend.golden")

// pairAgg is the aggregate UDF sema's golden inputs call.
type pairAgg struct{}

func (pairAgg) Name() string { return "pairagg" }
func (pairAgg) CheckArgs(n int) error {
	if n != 2 {
		return fmt.Errorf("udf: pairagg expects 2 arguments, got %d", n)
	}
	return nil
}
func (pairAgg) Init(*udf.Heap) (udf.State, error)            { return nil, nil }
func (pairAgg) Accumulate(udf.State, []sqltypes.Value) error { return nil }
func (pairAgg) Merge(dst, src udf.State) error               { return nil }
func (pairAgg) Finalize(udf.State) (sqltypes.Value, error)   { return sqltypes.Null, nil }

func col(name string, t sqltypes.Type) sqltypes.Column { return sqltypes.Column{Name: name, Type: t} }

func frontEndDB(t testing.TB, tables map[string][]sqltypes.Column) *db.DB {
	t.Helper()
	d := db.Open(db.Options{Partitions: 2})
	if err := nlqudf.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := score.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Aggregates().Register(pairAgg{}); err != nil {
		t.Fatal(err)
	}
	for name, cols := range tables {
		if _, err := d.CreateTable(name, &sqltypes.Schema{Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// sqlgenCorpus is every statement internal/sqlgen/sema_test.go feeds
// sema at dimensionality dims, with the catalog it checks them against.
func sqlgenCorpus(t testing.TB, dims int) (*db.DB, []string) {
	const k = 4
	numbered := func(prefix string, from, to int, lead ...sqltypes.Column) []sqltypes.Column {
		cols := lead
		for a := from; a <= to; a++ {
			cols = append(cols, col(fmt.Sprintf("%s%d", prefix, a), sqltypes.TypeDouble))
		}
		return cols
	}
	j, i := col("j", sqltypes.TypeBigInt), col("i", sqltypes.TypeBigInt)
	d := frontEndDB(t, map[string][]sqltypes.Column{
		"X":      synth.XSchema(dims, true).Columns,
		"BETA":   numbered("b", 0, dims),
		"MU":     numbered("X", 1, dims),
		"LAMBDA": numbered("X", 1, dims, j),
		"C":      numbered("X", 1, dims, j),
		"XD":     numbered("d", 1, k, i),
	})
	dimNames := sqlgen.Dims(dims)
	var stmts []string
	for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
		stmts = append(stmts, sqlgen.NLQQuery("X", dimNames, mt))
		for _, style := range []sqlgen.PassStyle{sqlgen.ListStyle, sqlgen.StringStyle} {
			stmts = append(stmts, sqlgen.NLQUDFQuery("X", dimNames, mt, style))
			stmts = append(stmts, sqlgen.NLQUDFGroupQuery("X", dimNames, mt, style, "i % 8"))
		}
	}
	stmts = append(stmts, sqlgen.NLQQueriesPerCell("X", dimNames)...)
	if plan, err := core.PlanBlocks(dims, 2); err == nil {
		stmts = append(stmts, sqlgen.NLQBlockQuery("X", dimNames, plan))
	}
	stmts = append(stmts,
		sqlgen.KMeansIterationQuery("X", "C", dimNames, k),
		sqlgen.RegScoreUDF("X", "BETA", "i", dimNames),
		sqlgen.RegScoreSQL("X", "BETA", "i", dimNames),
		sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", dimNames, k),
		sqlgen.PCAScoreSQL("X", "MU", "LAMBDA", "i", dimNames, k),
		sqlgen.ClusterScoreUDF("X", "C", "i", dimNames, k),
	)
	stmts = append(stmts, sqlgen.ClusterScoreSQL("X", "C", "XD", "i", dimNames, k)...)
	augmented := fmt.Sprintf("SELECT nlq_list(%d, 'triang'", dims+1)
	for a := 1; a <= dims; a++ {
		augmented += fmt.Sprintf(", X%d", a)
	}
	return d, append(stmts,
		augmented+", Y) FROM X",
		"SELECT i % 8, sum(X1) FROM X GROUP BY i % 8",
		"SELECT i, X1 + X1 FROM X WHERE X1 > 0",
	)
}

// abbreviate keeps golden lines readable: long text is cut to a prefix
// plus a digest of the whole.
func abbreviate(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= max {
		return s
	}
	return fmt.Sprintf("%s… [%d bytes, sha256 %x]", s[:max], len(s), sha256.Sum256([]byte(s)))
}

// describeFrontEnd plans the statement's SELECT and renders what the
// front end decided, or the error it refused it with.
func describeFrontEnd(d *db.DB, sql string) string {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "parse error: " + err.Error()
	}
	sel, ok := stmt.(*sqlparser.Select)
	if ins, isInsert := stmt.(*sqlparser.Insert); isInsert && ins.Query != nil {
		sel, ok = ins.Query, true
	}
	if !ok {
		return fmt.Sprintf("no SELECT (%T)", stmt)
	}
	p, err := exec.PrepareSelect(sel, &exec.Env{Catalog: d, Funcs: d.Scalars(), Aggs: d.Aggregates()})
	if err != nil {
		return "error: " + strings.ReplaceAll(err.Error(), "\n", " | ")
	}
	names, hidden, agg := p.FrontEnd()
	return fmt.Sprintf("aggregate=%v hidden=%d names=%s", agg, hidden, abbreviate(strings.Join(names, ","), 300))
}

// TestFrontEndGolden pins what parse → sema → plan decides for every
// statement of the existing corpora — sema's golden inputs, the
// statements internal/sqlgen/sema_test.go feeds, TestSelectPathMatrix's
// — as one table: output column names, hidden `$orderN` count,
// aggregate or not, or the refusal text. The table was generated
// before the statement rules were given one home each and must not
// change when they move.
func TestFrontEndGolden(t *testing.T) {
	var lines []string
	add := func(corpus string, d *db.DB, sql string) {
		lines = append(lines, fmt.Sprintf("%s\t%s\n\t%s", corpus, abbreviate(sql, 100), describeFrontEnd(d, sql)))
	}

	semaDB := frontEndDB(t, map[string][]sqltypes.Column{
		"t": {col("i", sqltypes.TypeBigInt), col("x", sqltypes.TypeDouble), col("s", sqltypes.TypeVarChar)},
		"u": {col("i", sqltypes.TypeBigInt), col("y", sqltypes.TypeDouble)},
	})
	files, err := filepath.Glob(filepath.Join("..", "sema", "testdata", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sema golden inputs: %v", err)
	}
	sort.Strings(files)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		add("sema/"+filepath.Base(file), semaDB, string(src))
	}

	for _, dims := range []int{1, 2, 8, 16} {
		d, stmts := sqlgenCorpus(t, dims)
		for _, sql := range stmts {
			add(fmt.Sprintf("sqlgen/d=%d", dims), d, sql)
		}
	}

	matrixDB := frontEndDB(t, map[string][]sqltypes.Column{
		"x": {col("a", sqltypes.TypeDouble), col("b", sqltypes.TypeDouble), col("j", sqltypes.TypeBigInt), col("s", sqltypes.TypeVarChar), col("w", sqltypes.TypeDouble)},
		"m": {col("j", sqltypes.TypeBigInt), col("v", sqltypes.TypeDouble)},
	})
	for _, sql := range exec.PathMatrixStatements() {
		add("pathmatrix", matrixDB, sql)
	}
	// Shapes the corpora above leave out: where each naming, ORDER BY
	// and classification rule changes its answer.
	for _, sql := range []string{
		"SELECT a AS k, b FROM x ORDER BY K",
		"SELECT a, b FROM x ORDER BY x.a",
		"SELECT * FROM x ORDER BY a",
		"SELECT * FROM x ORDER BY 2 DESC",
		"SELECT x.*, m.v FROM x CROSS JOIN m ORDER BY v",
		"SELECT j FROM x GROUP BY j ORDER BY count(*)",
		"SELECT j, sum(a) AS t FROM x GROUP BY j ORDER BY t DESC",
		"SELECT a FROM x ORDER BY sum(b)",
		"SELECT j FROM x ORDER BY sum(j)",
		"SELECT a FROM x ORDER BY a + 1, 1 + 1",
		"SELECT SUM(a), Max(b), Nlq_List(1, 'diag', a) FROM x",
		"SELECT sqrt(sum(a * a)) / count(*) FROM x",
		"SELECT a + b + a + b + a + b + a + b + a + b + a + b, a FROM x",
		"SELECT a FROM x HAVING a > 1",
		"SELECT a FROM x WHERE a > ? ORDER BY b + ?",
		"SELECT CASE WHEN a BETWEEN 1 AND 2 THEN max(b) ELSE 0 END FROM x",
		"SELECT a IN (1, 2), b IS NULL, CAST(j AS DOUBLE), -a, NOT (a > b) FROM x",
		"SELECT 1 ORDER BY 1",
		"SELECT count(*)",
	} {
		add("edge", matrixDB, sql)
	}

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "frontend.golden")
	if *updateFrontEnd {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-frontend): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<eof>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("front-end table differs at line %d\n got: %s\nwant: %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("front-end table is shorter than the golden: %d lines, want %d", len(gl), len(wl))
	}
}

// BenchmarkPrepareSelectPoint sizes what an ad-hoc point request pays
// between the parser and the scan: sema plus plan of serve_point's
// textually unique scoring statement (parse excluded).
func BenchmarkPrepareSelectPoint(b *testing.B) {
	d, _ := sqlgenCorpus(b, 8)
	env := &exec.Env{Catalog: d, Funcs: d.Scalars(), Aggs: d.Aggregates()}
	stmt, err := sqlparser.Parse(sqlgen.RegScoreUDF("X", "BETA", "i", sqlgen.Dims(8)) + " WHERE X.i = 17 /* client 1 request 9 */")
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sqlparser.Select)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.PrepareSelect(sel, env); err != nil {
			b.Fatal(err)
		}
	}
}
