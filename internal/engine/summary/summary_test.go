package summary

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.MustSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt},
		sqltypes.Column{Name: "x1", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "x2", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "x3", Type: sqltypes.TypeDouble},
	)
}

func testRow(i int64, x1, x2, x3 float64) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewBigInt(i),
		sqltypes.NewDouble(x1),
		sqltypes.NewDouble(x2),
		sqltypes.NewDouble(x3),
	}
}

var testCols = []string{"x1", "x2", "x3"}

// scanPoints collects the summarized columns of every row, the
// reference the incrementally maintained summary is compared against.
func scanPoints(t *testing.T, tab *storage.Table) core.SliceSource {
	t.Helper()
	var pts [][]float64
	err := tab.ScanContext(context.Background(), func(r sqltypes.Row) error {
		x := make([]float64, 3)
		for i := 0; i < 3; i++ {
			f, ok := r[1+i].Float()
			if !ok {
				return nil // NULL point: skipped, like the cache does
			}
			x[i] = f
		}
		pts = append(pts, x)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.SliceSource(pts)
}

// requireClose compares two summaries within relative tolerance.
func requireClose(t *testing.T, got, want *core.NLQ, tol float64) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N = %g, want %g", got.N, want.N)
	}
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for a := 0; a < got.D; a++ {
		if !close(got.L[a], want.L[a]) {
			t.Fatalf("L[%d] = %g, want %g", a, got.L[a], want.L[a])
		}
		for b := 0; b < got.D; b++ {
			if !close(got.QAt(a, b), want.QAt(a, b)) {
				t.Fatalf("Q[%d,%d] = %g, want %g", a, b, got.QAt(a, b), want.QAt(a, b))
			}
		}
	}
}

// TestMergeEquivalenceConcurrentInserts is the merge-equivalence
// property: the summary an entry catches up to over K interleaved
// concurrent inserts and reads equals a from-scratch ComputeNLQ over the
// final table within tolerance, and a rescan bit for bit. Run under
// -race this also proves reads and writes are properly serialized.
func TestMergeEquivalenceConcurrentInserts(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			tab, err := storage.NewTable("x", testSchema(), dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			cat := NewCatalog(0)
			ctx := context.Background()
			// Warm the entry on the empty table so every later read resumes.
			if _, hit, err := cat.NLQ(ctx, tab, testCols, core.Triangular); err != nil || hit {
				t.Fatalf("first read: hit=%v err=%v", hit, err)
			}
			const workers, batches, batchRows = 8, 25, 7
			var wg sync.WaitGroup
			readErr := make(chan error, workers)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						rows := make([]sqltypes.Row, batchRows)
						for r := range rows {
							v := float64(w*1000+b*10+r) / 3
							rows[r] = testRow(int64(w), v, v*v/100+1, 50-v)
						}
						if err := tab.Insert(rows...); err != nil {
							readErr <- err
							return
						}
						// Interleave reads with the writes: they must never
						// deadlock and never return an inconsistent summary.
						if b%5 == 0 {
							s, _, err := cat.NLQ(ctx, tab, testCols, core.Triangular)
							if err != nil {
								readErr <- err
								return
							}
							if s.N > float64(workers*batches*batchRows) {
								readErr <- fmt.Errorf("summary covers %g rows, max possible %d",
									s.N, workers*batches*batchRows)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(readErr)
			for err := range readErr {
				t.Fatal(err)
			}
			s, hit, err := cat.NLQ(ctx, tab, testCols, core.Triangular)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("summary not warm after interleaved inserts")
			}
			want, err := core.ComputeNLQ(scanPoints(t, tab), core.Triangular)
			if err != nil {
				t.Fatal(err)
			}
			requireClose(t, s, want, 1e-9)
			rescan, _, err := NewCatalog(0).NLQ(ctx, tab, testCols, core.Triangular)
			if err != nil {
				t.Fatal(err)
			}
			if s.Pack() != rescan.Pack() {
				t.Fatalf("caught-up summary %s\nrescan %s", s.Pack(), rescan.Pack())
			}
			// The warm read performed zero partition scans.
			tab.ResetScannedRows()
			if _, hit, err := cat.NLQ(ctx, tab, testCols, core.Triangular); err != nil || !hit {
				t.Fatalf("re-read: hit=%v err=%v", hit, err)
			}
			if n := tab.ScannedRows(); n != 0 {
				t.Fatalf("warm read scanned %d rows, want 0", n)
			}
		})
	}
}

// TestBulkLoadMaintainsSummary covers the BulkLoader append path: a
// warm entry reads a bulk load's rows, and only those, and stays exact.
func TestBulkLoadMaintainsSummary(t *testing.T) {
	tab, err := storage.NewTable("x", testSchema(), t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	ctx := context.Background()
	if _, _, err := cat.NLQ(ctx, tab, testCols, core.Triangular); err != nil {
		t.Fatal(err)
	}
	bl, err := tab.NewBulkLoader()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := bl.Add(testRow(int64(i), float64(i), float64(i%7), math.Sqrt(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	tab.ResetScannedRows()
	s, hit, err := cat.NLQ(ctx, tab, testCols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || tab.ScannedRows() != 100 {
		t.Fatalf("read after a 100-row bulk load: hit=%v, %d rows scanned", hit, tab.ScannedRows())
	}
	want, err := core.ComputeNLQ(scanPoints(t, tab), core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, s, want, 1e-9)
}

// TestRollbackNeverServesRetractedRows: an insert that fails and rolls
// back cleanly publishes nothing and leaves every partition as it was,
// so a warm entry stays fresh: the next read scans nothing and equals,
// bit for bit, the summary from before the insert.
func TestRollbackNeverServesRetractedRows(t *testing.T) {
	tab, err := storage.NewTable("x", testSchema(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(testRow(1, 1, 2, 3), testRow(2, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	ctx := context.Background()
	before, _, err := cat.NLQ(ctx, tab, testCols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("injected flush failure")
	tab.SetFault(&storage.Fault{Partition: 1, FlushClose: true, Err: sentinel})
	if err := tab.Insert(testRow(3, 7, 8, 9), testRow(4, 10, 11, 12)); !errors.Is(err, sentinel) {
		t.Fatalf("want injected error, got %v", err)
	}
	tab.SetFault(nil)
	if infos := cat.Snapshot(); len(infos) != 1 || infos[0].State != "fresh" {
		t.Fatalf("snapshot after rollback: %+v", infos)
	}
	tab.ResetScannedRows()
	after, hit, err := cat.NLQ(ctx, tab, testCols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || tab.ScannedRows() != 0 {
		t.Fatalf("read after a rollback: hit=%v, %d rows scanned", hit, tab.ScannedRows())
	}
	if after.Pack() != before.Pack() {
		t.Fatalf("after rollback %s\nbefore %s", after.Pack(), before.Pack())
	}
}

// TestRollbackCorruptionInvalidates is the insert-rollback
// invalidation path: when the rollback truncate itself fails, the
// entry is demoted and the fallback rebuild fails loudly on the
// corrupt partition instead of serving stale numbers.
func TestRollbackCorruptionInvalidates(t *testing.T) {
	tab, err := storage.NewTable("x", testSchema(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(testRow(1, 1, 2, 3), testRow(2, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	ctx := context.Background()
	if _, _, err := cat.NLQ(ctx, tab, testCols, core.Triangular); err != nil {
		t.Fatal(err)
	}
	tab.SetFault(&storage.Fault{Partition: 1, FlushClose: true, TruncateFail: true})
	if err := tab.Insert(testRow(3, 7, 8, 9), testRow(4, 10, 11, 12)); err == nil {
		t.Fatal("faulted insert succeeded")
	}
	tab.SetFault(nil)
	_, _, err = cat.NLQ(ctx, tab, testCols, core.Triangular)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("read over corrupt table: %v", err)
	}
	// sys.summaries-style snapshot reports the entry cold.
	infos := cat.Snapshot()
	if len(infos) != 1 || infos[0].State != "cold" {
		t.Fatalf("snapshot after corruption: %+v", infos)
	}
}

// TestTruncateInvalidates: TRUNCATE-equivalent resets demote the entry;
// the next read rebuilds an empty summary.
func TestTruncateInvalidates(t *testing.T) {
	tab, err := storage.NewTable("x", testSchema(), "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(testRow(1, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	ctx := context.Background()
	if s, _, err := cat.NLQ(ctx, tab, testCols, core.Triangular); err != nil || s.N != 1 {
		t.Fatalf("warm summary: n=%v err=%v", s.N, err)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	s, hit, err := cat.NLQ(ctx, tab, testCols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("truncate left the entry warm")
	}
	if s.N != 0 {
		t.Fatalf("summary after truncate covers %g rows", s.N)
	}
}

// TestColumnValidation rejects unknown and non-numeric columns.
func TestColumnValidation(t *testing.T) {
	tab, err := storage.NewTable("x", testSchema(), "", 2)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	ctx := context.Background()
	if _, _, err := cat.NLQ(ctx, tab, []string{"nope"}, core.Triangular); err == nil {
		t.Fatal("unknown column accepted")
	}
	schema := sqltypes.MustSchema(
		sqltypes.Column{Name: "s", Type: sqltypes.TypeVarChar},
		sqltypes.Column{Name: "x", Type: sqltypes.TypeDouble},
	)
	tab2, err := storage.NewTable("y", schema, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.NLQ(ctx, tab2, []string{"s"}, core.Triangular); err == nil {
		t.Fatal("varchar column accepted")
	}
}

// TestDropTableUnregisters: dropped tables leave the catalog, and a
// recreated table under the same name gets a fresh entry instead of
// the stale one.
func TestDropTableUnregisters(t *testing.T) {
	tab, err := storage.NewTable("x", testSchema(), "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(testRow(1, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(0)
	ctx := context.Background()
	if _, _, err := cat.NLQ(ctx, tab, testCols, core.Triangular); err != nil {
		t.Fatal(err)
	}
	cat.DropTable("x")
	if infos := cat.Snapshot(); len(infos) != 0 {
		t.Fatalf("catalog still holds %d entries after drop", len(infos))
	}
	// Same name, new table object: the summary must reflect the new
	// table, not the dropped one.
	tab2, err := storage.NewTable("x", testSchema(), "", 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := cat.NLQ(ctx, tab2, testCols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 0 {
		t.Fatalf("fresh table's summary covers %g rows", s.N)
	}
}

// TestReadResumesBitForBit: a warm entry reads only what was appended
// since its last read — by Insert, by a bulk load, NULL rows among them,
// a refused insert in between — in memory and on disk, where a read
// from the start folds segment blocks and a resumed one row-log float
// rows, and what it serves is, bit for bit, the summary a fresh
// catalog reads from the start. A truncate moves the
// table's epoch, and the next read reads from the start.
func TestReadResumesBitForBit(t *testing.T) {
	ctx := context.Background()
	next := int64(0)
	rows := func(n int) []sqltypes.Row {
		out := make([]sqltypes.Row, n)
		for i := range out {
			v := float64(next) * 0.37
			out[i] = testRow(next, v, 1e3-v*v, math.Sin(v))
			if next%9 == 4 {
				out[i][2] = sqltypes.Null
			}
			next++
		}
		return out
	}
	for _, disk := range []bool{false, true} {
		name := fmt.Sprintf("disk=%v", disk)
		dir := ""
		if disk {
			dir = t.TempDir()
		}
		tab, err := storage.NewTable("x", testSchema(), dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		cat := NewCatalog(0)
		check := func(what string, wantHit bool, wantScanned int64) {
			t.Helper()
			tab.ResetScannedRows()
			s, hit, err := cat.NLQ(ctx, tab, testCols, core.Full)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, what, err)
			}
			if hit != wantHit || tab.ScannedRows() != wantScanned {
				t.Fatalf("%s, %s: hit=%v scanned %d, want %v and %d", name, what, hit, tab.ScannedRows(), wantHit, wantScanned)
			}
			rescan, _, err := NewCatalog(0).NLQ(ctx, tab, testCols, core.Full)
			if err != nil {
				t.Fatal(err)
			}
			if s.Pack() != rescan.Pack() {
				t.Fatalf("%s, %s: served %s\nrescan %s", name, what, s.Pack(), rescan.Pack())
			}
		}
		if err := tab.Insert(rows(40)...); err != nil {
			t.Fatal(err)
		}
		check("first read", false, 40)
		if err := tab.Insert(rows(7)...); err != nil {
			t.Fatal(err)
		}
		check("after an insert", true, 7)
		check("again", true, 0)
		bl, err := tab.NewBulkLoader()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows(50) {
			if err := bl.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := bl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows(1)[0], sqltypes.Row{sqltypes.NewBigInt(1)}); err == nil {
			t.Fatal("an insert with a short row landed")
		}
		if err := tab.Insert(rows(2)...); err != nil {
			t.Fatal(err)
		}
		check("after a bulk load, a refused insert and an insert", true, 52)
		if err := tab.Truncate(); err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows(5)...); err != nil {
			t.Fatal(err)
		}
		check("after a truncate", false, 5)
	}
}
