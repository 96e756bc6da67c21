package statsudf

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// underWatchdog runs fn and fails the test if it has not returned
// within limit: a write that deadlocks on its own table's lock fails in
// seconds instead of running into the job timeout.
func underWatchdog(t *testing.T, limit time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(limit):
		t.Fatalf("%s: still running after %v", what, limit)
	}
}

func countRows(t *testing.T, d *DB, table string) int64 {
	t.Helper()
	res, err := d.Exec("SELECT count(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Value()
	if err != nil {
		t.Fatal(err)
	}
	return v.Int()
}

// TestSelfInsertSelectTerminates: an INSERT ... SELECT that reads its
// own target — directly, through a view, or as a cross-join tail table —
// returns and inserts exactly the rows of the target's pre-statement
// snapshot, in memory and on disk; on disk it also leaves the table's
// block scan bit-equal to an in-memory twin's row scan.
func TestSelfInsertSelectTerminates(t *testing.T) {
	const n = 5000
	stmts := map[string]string{
		"direct": "INSERT INTO X SELECT i + 100000, X1, X2 FROM X",
		"view":   "INSERT INTO X SELECT i + 100000, X1, X2 FROM V",
		"tail":   "INSERT INTO X SELECT X.i + 100000, X.X1, X.X2 FROM ONE, X",
	}
	for _, disk := range []bool{false, true} {
		for name, stmt := range stmts {
			t.Run(fmt.Sprintf("%s/disk=%v", name, disk), func(t *testing.T) {
				rowDB, colDB := openModePair(t, 4)
				dbs := []*DB{rowDB, colDB}
				if !disk {
					dbs = dbs[:1]
				}
				for _, d := range dbs {
					if err := d.Generate("X", MixtureConfig{N: n, D: 2, Seed: 7}); err != nil {
						t.Fatal(err)
					}
					for _, sql := range []string{"CREATE VIEW V AS SELECT i, X1, X2 FROM X", "CREATE TABLE ONE (k BIGINT)", "INSERT INTO ONE VALUES (1)"} {
						if _, err := d.Exec(sql); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, d := range dbs {
					d := d
					underWatchdog(t, 5*time.Second, stmt, func() error {
						res, err := d.Exec(stmt)
						if err == nil && res.Affected != n {
							err = fmt.Errorf("affected %d rows, want %d", res.Affected, n)
						}
						return err
					})
					if got := countRows(t, d, "X"); got != 2*n {
						t.Fatalf("count(*) = %d after the self-insert, want %d", got, 2*n)
					}
				}
				const q = "SELECT i, X1 * 2, X2 - X1 FROM X ORDER BY i"
				rr, err := rowDB.Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				cr, err := dbs[len(dbs)-1].Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(rr.Rows) != 2*n || len(cr.Rows) != 2*n {
					t.Fatalf("projection returns %d / %d rows, want %d", len(rr.Rows), len(cr.Rows), 2*n)
				}
				for i := range rr.Rows {
					for c := range rr.Rows[i] {
						a, _ := rr.Rows[i][c].Float()
						b, _ := cr.Rows[i][c].Float()
						if !bitsEqual(a, b) {
							t.Fatalf("row %d col %d: row scan %v, block scan %v", i, c, a, b)
						}
					}
				}
				// The second half is the first, shifted: the statement read the
				// pre-statement snapshot and nothing of what it wrote.
				if lo, hi := rr.Rows[0][0].Int(), rr.Rows[n][0].Int(); hi != lo+100000 {
					t.Fatalf("first copied id %d, want %d", hi, lo+100000)
				}
			})
		}
	}
}

// targetState is what a failed write must leave untouched.
type targetState struct {
	rows  int64
	parts string
	bytes int64
}

func stateOf(t *testing.T, tab *storage.Table) targetState {
	t.Helper()
	size, err := tab.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return targetState{tab.NumRows(), fmt.Sprint(tab.PartitionRowCounts()), size}
}

// TestFailedInsertSelectLeavesNothing: an INSERT ... SELECT that fails —
// an evaluation error on the last row, a cancelled context, a source
// partition that dies mid-scan — leaves its target's counts and files as
// they were, never a wrong cached summary, and a retry lands every row.
func TestFailedInsertSelectLeavesNothing(t *testing.T) {
	const n = 20000
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			opts := Options{Partitions: 4}
			if disk {
				opts.Dir = t.TempDir()
			}
			d, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.Generate("X", MixtureConfig{N: n, D: 1, Seed: 3}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ExecScript(`CREATE TABLE Y (i BIGINT, v DOUBLE);
				INSERT INTO Y VALUES (-1, 0.5), (-2, 1.5), (-3, 2.5), (-4, 3.5), (-5, 4.5)`); err != nil {
				t.Fatal(err)
			}
			src, err := d.Engine().Table("X")
			if err != nil {
				t.Fatal(err)
			}
			dst, err := d.Engine().Table("Y")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			if err := d.Engine().Scalars().Register(expr.FuncDef{
				Name: "cancel_at", MinArgs: 2, MaxArgs: 2, Ret: sqltypes.TypeDouble,
				Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
					if args[0].Int() == args[1].Int() {
						once.Do(cancel)
					}
					return sqltypes.NewDouble(1), nil
				},
			}); err != nil {
				t.Fatal(err)
			}
			sentinel := errors.New("injected source failure")
			failures := []struct {
				name, stmt string
				ctx        context.Context
				fault      *storage.Fault
				want       func(error) bool
			}{
				{"evaluation error", fmt.Sprintf("INSERT INTO Y SELECT i, 1/(i-%d) FROM X", n-1), context.Background(), nil,
					func(err error) bool { return strings.Contains(err.Error(), "division by zero") }},
				{"cancelled context", fmt.Sprintf("INSERT INTO Y SELECT i, cancel_at(i, %d) FROM X", n/2), ctx, nil,
					func(err error) bool { return errors.Is(err, context.Canceled) }},
				{"source fault", "INSERT INTO Y SELECT i, X1 FROM X", context.Background(),
					&storage.Fault{Partition: 2, ScanAfterRows: n / 8, Err: sentinel},
					func(err error) bool { return errors.Is(err, sentinel) }},
			}
			cached := SummaryOptions{Method: ViaCache, Matrix: Triangular}
			warm, err := d.Summary("Y", []string{"v"}, cached)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range failures {
				// Re-warm: a failure may have turned the entry cold.
				if _, err := d.Summary("Y", []string{"v"}, cached); err != nil {
					t.Fatal(err)
				}
				before := stateOf(t, dst)
				src.SetFault(f.fault)
				_, err := d.ExecContext(f.ctx, f.stmt)
				src.SetFault(nil)
				if err == nil || !f.want(err) {
					t.Fatalf("%s: statement returned %v", f.name, err)
				}
				if after := stateOf(t, dst); after != before {
					t.Fatalf("%s: target went from %+v to %+v", f.name, before, after)
				}
				if got := countRows(t, d, "Y"); got != before.rows {
					t.Fatalf("%s: count(*) = %d, want %d", f.name, got, before.rows)
				}
				// Whether served warm or rebuilt cold, the summary is that of
				// the five rows the target still holds.
				got, err := d.Summary("Y", []string{"v"}, cached)
				if err != nil {
					t.Fatal(err)
				}
				requireNLQBitIdentical(t, f.name+": summary after the failure", warm, got)
			}
			res, err := d.Exec("INSERT INTO Y SELECT i, X1 FROM X")
			if err != nil || res.Affected != n {
				t.Fatalf("retry: %v, %+v", err, res)
			}
			if got := countRows(t, d, "Y"); got != n+5 {
				t.Fatalf("count(*) = %d after the retry, want %d", got, n+5)
			}
		})
	}
}

// TestImportCSVFailureLeavesNoTable: a CSV whose last line is bad
// imports nothing — no table, no file, and not one row was ever
// published as inserted.
func TestImportCSVFailureLeavesNoTable(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var b strings.Builder
	b.WriteString("i,x\n")
	for i := 0; i < 9999; i++ {
		fmt.Fprintf(&b, "%d,%d.5\n", i, i)
	}
	b.WriteString("9999,oops\n")
	published := obs.RowsInserted.Value()
	if _, err := d.ImportCSV("t", strings.NewReader(b.String()), true); err == nil {
		t.Fatal("import of a CSV with a bad last line succeeded")
	}
	if got := obs.RowsInserted.Value(); got != published {
		t.Fatalf("failed import published %d rows", got-published)
	}
	if d.Engine().HasTable("t") {
		t.Fatal("failed import left the table in the catalog")
	}
	for _, pattern := range []string{"*.dat", "*.seg", "*.seg.tmp"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) != 0 {
			t.Fatalf("failed import left %v behind", m)
		}
	}
	// The same import without the bad line works.
	good := strings.TrimSuffix(b.String(), "9999,oops\n")
	if rows, err := d.ImportCSV("t", strings.NewReader(good), true); err != nil || rows != 9999 {
		t.Fatalf("clean import: %d rows, %v", rows, err)
	}
}

// TestInsertSelectIsAtomicToReaders: while a streaming INSERT ... SELECT
// runs, readers polling the target see each partition before the
// statement or after it. A one-partition target is read in one critical
// section, so its count(*) is exactly the before or the after count; a
// partitioned target is read a partition at a time (snapshot reads are
// not implemented), so there each partition's share is whole or absent.
func TestInsertSelectIsAtomicToReaders(t *testing.T) {
	const n, seeded = 8000, 4
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			d, err := Open(Options{Partitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.Generate("X", MixtureConfig{N: n, D: 1, Seed: 5}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ExecScript(`CREATE TABLE Y (i BIGINT, v DOUBLE);
				INSERT INTO Y VALUES (-1, 0), (-2, 0), (-3, 0), (-4, 0)`); err != nil {
				t.Fatal(err)
			}
			dst, err := d.Engine().Table("Y")
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, err := d.Exec("SELECT count(*) FROM Y")
						if err != nil {
							t.Error(err)
							return
						}
						v, _ := res.Value()
						if extra := v.Int() - seeded; extra < 0 || extra > n || extra%(n/int64(parts)) != 0 {
							t.Errorf("count(*) = %d mid-statement: not whole partitions of the %d-row insert", v.Int(), n)
							return
						}
						var sum int64
						for _, c := range dst.PartitionRowCounts() {
							sum += c
						}
						if rows := dst.NumRows(); (sum != seeded && sum != seeded+n) || (rows != seeded && rows != seeded+n) {
							t.Errorf("published counts %d / %d: neither before nor after", sum, rows)
							return
						}
					}
				}()
			}
			_, err = d.Exec("INSERT INTO Y SELECT i, X1 FROM X")
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := countRows(t, d, "Y"); got != seeded+n {
				t.Fatalf("count(*) = %d after the statement, want %d", got, seeded+n)
			}
		})
	}
}
