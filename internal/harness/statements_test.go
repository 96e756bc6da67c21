package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/sqlgen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/statements.golden")

// TestTimedStatementText runs one timed closure of each paper arm at
// tiny scale and pins the statement text the engine received, read back
// from its query log, against a golden recorded before the harness was
// moved onto the facade: whatever drives the engine, Tables 1-6 and
// Figures 1-6 must keep timing byte-identical SQL.
func TestTimedStatementText(t *testing.T) {
	cfg := tiny().withDefaults()
	d, cleanup, err := newDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var out strings.Builder
	arm := func(name string, fn func() error) {
		t.Helper()
		var mark int64
		if recent := d.RecentQueries(); len(recent) > 0 {
			mark = recent[0].ID
		}
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "## %s\n", name)
		recent := d.RecentQueries()
		for i := len(recent) - 1; i >= 0; i-- {
			if recent[i].ID > mark {
				out.WriteString(recent[i].SQL + "\n--\n")
			}
		}
	}
	load := func(n, dims int) {
		t.Helper()
		if err := loadX(d, cfg, n, dims); err != nil {
			t.Fatal(err)
		}
	}

	load(40, 4)
	for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
		arm("long SQL "+mt.String(), func() error { _, err := summarize(d, 4, mt, statsudf.ViaSQL); return err })
		arm("UDF list "+mt.String(), func() error { _, err := summarize(d, 4, mt, statsudf.ViaUDF); return err })
		arm("UDF string "+mt.String(), func() error { _, err := summarize(d, 4, mt, statsudf.ViaUDFString); return err })
	}
	arm("t3 grouped summaries", func() error {
		_, err := d.GroupedSummary("X", sqlgen.Dims(4), core.Diagonal, "i % 16")
		return err
	})
	for _, style := range []sqlgen.PassStyle{sqlgen.StringStyle, sqlgen.ListStyle} {
		arm("t5 GROUP BY "+style.String(), groupByArm(d, 4, 8, style))
	}
	arm("a2 per-cell", func() error { return execAll(d, sqlgen.NLQQueriesPerCell("X", sqlgen.Dims(4))) })
	load(40, 16)
	arm("a3 executor stats", func() error {
		for _, q := range statsQueries(16) {
			if _, err := d.Exec(q.sql); err != nil {
				return err
			}
		}
		return nil
	})
	for _, dims := range []int{64, 128} {
		load(30, dims)
		_, blocked, err := blockedArm(d, dims)
		if err != nil {
			t.Fatal(err)
		}
		arm(fmt.Sprintf("t6 blocked d=%d", dims), blocked)
	}
	if err := prepareScoringModels(d, cfg, 60, 4, 2); err != nil {
		t.Fatal(err)
	}
	dims4 := sqlgen.Dims(4)
	arm("t4 scoring", func() error {
		for _, sql := range []string{
			sqlgen.RegScoreSQL("X", "BETA", "i", dims4), sqlgen.RegScoreUDF("X", "BETA", "i", dims4),
			sqlgen.PCAScoreSQL("X", "MU", "LAMBDA", "i", dims4, 2), sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", dims4, 2),
			sqlgen.ClusterScoreUDF("X", "C", "i", dims4, 2),
		} {
			if err := discard(cfg, d, sql); err != nil {
				return err
			}
		}
		return runClusterScoreSQL(cfg, d, dims4, 2)
	})

	const golden = "testdata/statements.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("timed statement text changed; diff against %s (rerun with -update only if the change is intended):\n%s", golden, out.String())
	}
}
