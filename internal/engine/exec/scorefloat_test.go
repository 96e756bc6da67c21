package exec_test

import (
	"math"
	"testing"

	"repro/internal/engine/db"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
)

// tableRows reads every row of table, in no particular order.
func tableRows(t *testing.T, eng *db.DB, table string) []sqltypes.Row {
	t.Helper()
	res, err := eng.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// floats is row's values as the float bodies take them.
func floats(row sqltypes.Row) []float64 {
	x := make([]float64, len(row))
	for i, v := range row {
		x[i] = v.MustFloat()
	}
	return x
}

// TestScoringStatementsMatchGoScoring runs §3.5's three scoring
// statements, which scan float rows, and scores every row of X again in
// Go with the same UDF bodies called directly on its values: the two
// agree bit for bit, a clusterscore as a BIGINT.
func TestScoringStatementsMatchGoScoring(t *testing.T) {
	const n, dims, k = 600, 5, 3
	d, cols := scoreDB(t, n, dims, k, 4)
	eng := d.Engine()
	body := func(name string) func([]float64) (float64, error) {
		def, ok := eng.Scalars().Lookup(name)
		if !ok || def.Float == nil {
			t.Fatalf("%s has no float body", name)
		}
		return def.Float
	}
	call := func(name string, args ...[]float64) float64 {
		var x []float64
		for _, a := range args {
			x = append(x, a...)
		}
		f, err := body(name)(x)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	points := map[int64][]float64{}
	for _, r := range tableRows(t, eng, "X") {
		points[r[0].Int()] = floats(r[1 : dims+1])
	}
	byJ := func(table string) map[int64][]float64 {
		out := map[int64][]float64{}
		for _, r := range tableRows(t, eng, table) {
			out[r[0].Int()] = floats(r[1:])
		}
		return out
	}
	beta := floats(tableRows(t, eng, "BETA")[0])
	mu := floats(tableRows(t, eng, "MU")[0])
	lambda, centroids := byJ("LAMBDA"), byJ("C")

	for _, c := range []struct {
		name, sql string
		want      func(x []float64) sqltypes.Row
	}{
		{"regression", sqlgen.RegScoreUDF("X", "BETA", "i", cols), func(x []float64) sqltypes.Row {
			return sqltypes.Row{sqltypes.NewDouble(call("linearregscore", x, beta))}
		}},
		{"pca", sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", cols, k), func(x []float64) sqltypes.Row {
			var out sqltypes.Row
			for j := int64(1); j <= k; j++ {
				out = append(out, sqltypes.NewDouble(call("fascore", x, mu, lambda[j])))
			}
			return out
		}},
		{"kmeans", sqlgen.ClusterScoreUDF("X", "C", "i", cols, k), func(x []float64) sqltypes.Row {
			dist := make([]float64, k)
			for j := range dist {
				dist[j] = call("kdistance", x, centroids[int64(j+1)])
			}
			return sqltypes.Row{sqltypes.NewBigInt(int64(call("clusterscore", dist)))}
		}},
	} {
		res, err := eng.Exec(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range res.Stats.Root.SpanByName("scan").Children {
			if sp.Source != "float" {
				t.Fatalf("%s: %s scanned from the %s source, want float", c.name, sp.Name, sp.Source)
			}
		}
		if len(res.Rows) != n {
			t.Fatalf("%s: %d rows, want %d", c.name, len(res.Rows), n)
		}
		for _, r := range res.Rows {
			want := c.want(points[r[0].Int()])
			for j, w := range want {
				g := r[j+1]
				if g.Type() != w.Type() || math.Float64bits(g.MustFloat()) != math.Float64bits(w.MustFloat()) {
					t.Fatalf("%s: row %v column %d is %v (%v), Go scoring %v (%v)", c.name, r[0], j+1, g, g.Type(), w, w.Type())
				}
			}
		}
	}
}

// TestKMeansScoringSourcesAndTailReads executes the K-means scoring
// statement prepared, twice. Each execution reads the model table C
// once, not once per alias, and every partition scans float rows. Then
// a second centroid j = 1 with a NULL coordinate is inserted: the next
// execution sees it — every point is scored against both, so twice the
// rows — and, as a model value no longer converts, scans boxed rows.
func TestKMeansScoringSourcesAndTailReads(t *testing.T) {
	const n, dims, k = 3000, 4, 3
	d, cols := scoreDB(t, n, dims, k, 4)
	eng := d.Engine()
	p, err := eng.Prepare(sqlgen.ClusterScoreUDF("X", "C", "i", cols, k))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := eng.Table("C")
	if err != nil {
		t.Fatal(err)
	}
	run := func(source string, rows int) {
		t.Helper()
		before := c.ScannedRows()
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows {
			t.Fatalf("%d rows scored, want %d", len(res.Rows), rows)
		}
		spans := res.Stats.Root.SpanByName("scan").Children
		if len(spans) != 4 {
			t.Fatalf("%d partition spans, want 4", len(spans))
		}
		for _, sp := range spans {
			if sp.Source != source {
				t.Fatalf("%s scanned from the %s source, want %s", sp.Name, sp.Source, source)
			}
		}
		if got := c.ScannedRows() - before; got != c.NumRows() {
			t.Fatalf("the execution read %d rows of C, which holds %d: once per alias, not once", got, c.NumRows())
		}
	}
	run("float", n)
	run("float", n)
	centroid := sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.Null}
	for len(centroid) < dims+1 {
		centroid = append(centroid, sqltypes.NewDouble(0))
	}
	if err := c.Insert(centroid); err != nil {
		t.Fatal(err)
	}
	run("row", 2*n)
}
