package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlgen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/statements.golden")

// TestTimedStatementText runs one repetition of each paper arm — the
// same arm values the experiments time — at tiny scale and pins the
// statement text the engine received, read back from its query log,
// against a golden recorded before the harness was moved onto the
// facade: whatever drives the engine, Tables 1-6 and Figures 1-6 must
// keep timing byte-identical SQL.
func TestTimedStatementText(t *testing.T) {
	cfg := tiny().withDefaults()
	var out strings.Builder
	// record loads ds and, per group of arms, logs the statements one
	// repetition of each sent to the engine under the group's label.
	type group struct {
		label string
		arms  []arm
	}
	one := func(a arm) group { return group{a.name, []arm{a}} }
	record := func(ds dataset, groups ...group) {
		t.Helper()
		err := withDataset(cfg, ds, func(e *env) error {
			for _, g := range groups {
				var mark int64
				if recent := e.db.RecentQueries(); len(recent) > 0 {
					mark = recent[0].ID
				}
				for _, a := range g.arms {
					if err := a.run(e); err != nil {
						return fmt.Errorf("%s: %w", a.name, err)
					}
				}
				fmt.Fprintf(&out, "## %s\n", g.label)
				recent := e.db.RecentQueries()
				for i := len(recent) - 1; i >= 0; i-- {
					if recent[i].ID > mark {
						out.WriteString(recent[i].SQL + "\n--\n")
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var groups []group
	for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
		groups = append(groups, one(sqlArm(mt)), one(udfArm(mt)), one(stringArm(mt)))
	}
	perCell, _ := perCellArm(4)
	record(dataset{n: 40, dims: 4}, append(groups,
		one(arm{"t3 grouped summaries", func(e *env) error {
			_, err := e.db.GroupedSummary("X", e.cols, core.Diagonal, "i % 16")
			return err
		}}),
		one(groupByArm(4, 8, sqlgen.StringStyle)), one(groupByArm(4, 8, sqlgen.ListStyle)), one(perCell))...)
	record(dataset{n: 40, dims: 16}, one(arm{"a3 executor stats", func(e *env) error {
		for _, q := range statsQueries(16) {
			if _, err := e.db.Exec(q.sql); err != nil {
				return err
			}
		}
		return nil
	}}))
	for _, dims := range []int{64, 128} {
		blocked, _, err := blockedArm(dims)
		if err != nil {
			t.Fatal(err)
		}
		record(dataset{n: 30, dims: dims}, one(blocked))
	}
	reg, pca, clus := techniques[0], techniques[1], techniques[2]
	record(dataset{n: 60, dims: 4, models: 2},
		group{"t4 scoring", []arm{reg.sql, reg.udf, pca.sql, pca.udf, clus.udf, clus.sql}})

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
