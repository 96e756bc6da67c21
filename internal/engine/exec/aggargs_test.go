// The aggregate UDFs live above this package (nlqudf imports db, db
// imports exec), so what sizes the scan → argument plan → Accumulate
// path with the real nlq_list is an external test.
package exec_test

import (
	"context"
	"testing"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/sqlgen"
)

// buildUDFStatement loads X(i, X1..X32) with n rows into a fresh on-disk
// database and returns the ledger's build_udf statement over it:
// nlq_list with 34 arguments, two literals and 32 bare columns.
func buildUDFStatement(tb testing.TB, n, partitions int) (*statsudf.DB, string) {
	tb.Helper()
	d, err := statsudf.Open(statsudf.Options{Dir: tb.TempDir(), Partitions: partitions})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	if err := d.Generate("X", statsudf.MixtureConfig{N: n, D: 32, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	return d, sqlgen.NLQUDFQuery("X", statsudf.DimColumns(32), core.Triangular, sqlgen.ListStyle)
}

func BenchmarkAggregateArgs34(b *testing.B) {
	d, sql := buildUDFStatement(b, 16384, 4)
	benchStatement(b, d, sql)
}

// BenchmarkNLQWhere and BenchmarkNLQGroupBy time the build statement's
// boxed-row shapes, a residual WHERE and Table 5's GROUP BY: the row
// log is decoded boxed and each row's float arguments are filled through
// the argument plan.
func BenchmarkNLQWhere(b *testing.B) {
	d, sql := buildUDFStatement(b, 32768, 4)
	benchStatement(b, d, sql+" WHERE i >= 0")
}

func BenchmarkNLQGroupBy(b *testing.B) {
	d, _ := buildUDFStatement(b, 32768, 4)
	benchStatement(b, d, sqlgen.NLQUDFGroupQuery("X", statsudf.DimColumns(32), core.Triangular, sqlgen.ListStyle, "i % 16"))
}

func benchStatement(b *testing.B, d *statsudf.DB, sql string) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAccumulateDoesNotAllocatePerRow scans one partition of 2 000 and
// one of 16 000 rows, from both unboxed sources: float rows (the row
// log's float decode straight into nlq_list's float body, with the
// block source declined) and segment blocks (the statement as the
// engine plans it on disk). Their buffers are the scan's and the
// worker's, so a statement allocates the same whatever it scans.
func TestAccumulateDoesNotAllocatePerRow(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector (sync.Pool drops items)")
	}
	for _, source := range []string{"float", "block"} {
		allocs := func(n int) float64 {
			d, sql := buildUDFStatement(t, n, 1)
			run := func() (*exec.Result, error) { return d.Exec(sql) }
			if source == "float" {
				eng := d.Engine()
				stmt, err := sqlparser.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				p, err := exec.PrepareSelect(stmt.(*sqlparser.Select), &exec.Env{Catalog: eng, Funcs: eng.Scalars(), Aggs: eng.Aggregates()})
				if err != nil {
					t.Fatal(err)
				}
				run = func() (*exec.Result, error) { return p.Run(context.Background(), nil, nil) }
			}
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if src := res.Stats.Root.SpanByName("scan").SpanByName("scan[p0]").Source; src != source {
				t.Fatalf("the build statement scanned from the %q source, want %s", src, source)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(2000), allocs(16000)
		// The slack covers pool refills after a GC, not rows: one
		// allocation per row would be 14 000 apart.
		if large > small+50 {
			t.Fatalf("%s: %v allocations over 16 000 rows, %v over 2 000", source, large, small)
		}
		t.Logf("%s: allocations per statement: %v at 2 000 rows, %v at 16 000", source, small, large)
	}
}
