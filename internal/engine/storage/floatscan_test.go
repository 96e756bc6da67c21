package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/engine/sqltypes"
)

// floatScan runs a float-mode scan over partition p and returns what
// reached each callback in delivery order: a copy of the float row, or
// the boxed row (a clone), never both.
func floatScan(ctx context.Context, tab *Table, p int, cols []int) (floats [][]float64, rows []sqltypes.Row, st ScanStats, err error) {
	st, err = tab.ScanPartitionRead(ctx, p, Read{Cols: cols, Floats: func(x []float64) error {
		floats = append(floats, append(make([]float64, 0, len(x)), x...))
		rows = append(rows, nil)
		return nil
	}, Rows: func(r sqltypes.Row) error {
		floats = append(floats, nil)
		rows = append(rows, r.Clone())
		return nil
	}})
	return floats, rows, st, err
}

// rowScan is the row scan of partition p, rows cloned.
func rowScan(ctx context.Context, tab *Table, p int) (rows []sqltypes.Row, st ScanStats, err error) {
	st, err = tab.ScanPartitionStats(ctx, p, func(r sqltypes.Row) error {
		rows = append(rows, r.Clone())
		return nil
	})
	return rows, st, err
}

// floatsMatchRows: the float decode of cols delivers every row the row
// scan delivers, in order, exactly once — as floats bit-identical to the
// row's cells (a BIGINT widened) when every requested cell is a DOUBLE
// or BIGINT, boxed and equal to the row otherwise — with the same stats.
func floatsMatchRows(t *testing.T, tab *Table, cols []int) {
	t.Helper()
	for p := 0; p < tab.Partitions(); p++ {
		want, wst, err := rowScan(context.Background(), tab, p)
		if err != nil {
			t.Fatal(err)
		}
		floats, rows, st, err := floatScan(context.Background(), tab, p, cols)
		if err != nil {
			t.Fatalf("cols %v partition %d: %v", cols, p, err)
		}
		if st != wst || len(rows) != len(want) {
			t.Fatalf("cols %v partition %d: %d rows, stats %+v; the row scan %d, %+v", cols, p, len(rows), st, len(want), wst)
		}
		for r, w := range want {
			numbers := true
			for _, c := range cols {
				switch v := w[c]; v.Type() {
				case sqltypes.TypeDouble:
				case sqltypes.TypeBigInt:
					numbers = numbers && exactFloat(v.Int())
				default:
					numbers = false
				}
			}
			if got := floats[r] != nil; got != numbers {
				t.Fatalf("cols %v partition %d row %d (%v): delivered as floats %v, want %v", cols, p, r, w, got, numbers)
			}
			if !numbers {
				if !sameRow(rows[r], w) {
					t.Fatalf("cols %v partition %d row %d: boxed %v, the row scan %v", cols, p, r, rows[r], w)
				}
				continue
			}
			for j, c := range cols {
				f, _ := w[c].Float()
				if math.Float64bits(floats[r][j]) != math.Float64bits(f) {
					t.Fatalf("cols %v partition %d row %d column %d: %v, the row scan %v", cols, p, r, c, floats[r][j], w[c])
				}
			}
		}
	}
}

// TestScanPartitionFloatsMatchesRowScan: over DOUBLE, BIGINT and VARCHAR
// columns with NULLs (an all-NULL column among them) and VARCHARs that
// look like numbers, in memory and on disk, any request of distinct
// columns in any order routes each row to exactly one callback, as the
// row scan has it.
func TestScanPartitionFloatsMatchesRowScan(t *testing.T) {
	schema := mixedSchema()
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(25))
			tab, err := NewTable("x", schema, dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]sqltypes.Row, 400)
			for i := range rows {
				rows[i] = mixedRow(rng, i, 3)
			}
			if err := tab.Insert(rows...); err != nil {
				t.Fatal(err)
			}
			floatsMatchRows(t, tab, []int{0, 3, 6})    // numbers, NULLs in two
			floatsMatchRows(t, tab, []int{6, 1})       // BIGINTs, out of order
			floatsMatchRows(t, tab, []int{6})          // never NULL: every row as floats
			floatsMatchRows(t, tab, []int{5})          // always NULL: every row boxed
			floatsMatchRows(t, tab, []int{2, 6})       // a VARCHAR requested
			floatsMatchRows(t, tab, nil)               // nothing requested
			floatsMatchRows(t, tab, rng.Perm(8)[:4])   // any subset
			floatsMatchRows(t, tab, rng.Perm(8))       // every column
			floatsMatchRows(t, tab, []int{7, 3, 0, 6}) // the VARCHARs stepped over
		})
	}
}

// TestScanPartitionFloatsRefusesWideBigInts: a requested BIGINT beyond
// ±2⁵³, which a float64 would round, sends its row to the boxed
// callback, in memory and on disk, while ±2⁵³ itself and a wide BIGINT
// in a column not requested still decode to floats.
func TestScanPartitionFloatsRefusesWideBigInts(t *testing.T) {
	const edge = int64(1) << 53
	schema := sqltypes.MustSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt},
		sqltypes.Column{Name: "x", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "w", Type: sqltypes.TypeBigInt},
	)
	ids := []int64{edge + 1, -edge - 1, edge, -edge, 7, math.MaxInt64, math.MinInt64, edge - 1}
	for _, dir := range []string{"", t.TempDir()} {
		tab, err := NewTable("x", schema, dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := tab.Insert(sqltypes.Row{sqltypes.NewBigInt(id), sqltypes.NewDouble(0.5), sqltypes.NewBigInt(edge + 3)}); err != nil {
				t.Fatal(err)
			}
		}
		floats, rows, _, err := floatScan(context.Background(), tab, 0, []int{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		for r, id := range ids {
			wide := id > edge || id < -edge
			if got := rows[r] != nil; got != wide {
				t.Fatalf("dir %q: BIGINT %d went boxed: %v, want %v", dir, id, got, wide)
			}
			if wide {
				if rows[r][0].Int() != id {
					t.Fatalf("dir %q: boxed row carries %v, want %d", dir, rows[r][0], id)
				}
			} else if floats[r][1] != float64(id) || int64(floats[r][1]) != id {
				t.Fatalf("dir %q: BIGINT %d decoded as %v", dir, id, floats[r][1])
			}
		}
		floatsMatchRows(t, tab, []int{0, 2})
		if _, rows, _, err := floatScan(context.Background(), tab, 0, []int{1}); err != nil || slices.ContainsFunc(rows, func(r sqltypes.Row) bool { return r != nil }) {
			t.Fatalf("dir %q: a row went boxed for a wide BIGINT not requested (err %v)", dir, err)
		}
	}
}

// TestScanPartitionFloatsKeepsTheScanChecks: the float decode mode is the
// row scan's body, so the refusals, the accounting check, ErrCorrupt,
// byte accounting, cancellation and fault injection hold in it exactly
// as in the row scan — same error, same stats.
func TestScanPartitionFloatsKeepsTheScanChecks(t *testing.T) {
	cols := []int{0, 1}
	same := func(t *testing.T, tab *Table, ctx func() context.Context, what string) {
		t.Helper()
		_, wst, werr := rowScan(ctx(), tab, 0)
		_, _, st, err := floatScan(ctx(), tab, 0, cols)
		if werr == nil || err == nil || err.Error() != werr.Error() || st != wst {
			t.Fatalf("%s: float scan %v %+v, row scan %v %+v", what, err, st, werr, wst)
		}
		if errors.Is(err, ErrCorrupt) != errors.Is(werr, ErrCorrupt) {
			t.Fatalf("%s: ErrCorrupt %v vs %v", what, errors.Is(err, ErrCorrupt), errors.Is(werr, ErrCorrupt))
		}
	}
	bg := context.Background
	for _, dir := range []string{"", t.TempDir()} {
		tab, err := NewTable("x", testSchema(), dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, tab, 200)
		tab.SetFault(&Fault{Partition: 0, ScanAfterRows: 7})
		same(t, tab, bg, "fault after 7 rows")
		tab.SetFault(&Fault{Partition: 0, ScanOpen: true})
		same(t, tab, bg, "fault at open")
		tab.SetFault(nil)
		cancelled := func() context.Context {
			ctx, cancel := context.WithCancel(bg())
			cancel()
			return ctx
		}
		same(t, tab, cancelled, "cancelled")
		// Cancellation mid-scan is seen at the same 64-row check.
		ctx, cancel := context.WithCancel(bg())
		n := 0
		_, err = tab.ScanPartitionRead(ctx, 0, Read{Cols: cols, Floats: func([]float64) error {
			if n++; n == 10 {
				cancel()
			}
			return nil
		}, Rows: func(sqltypes.Row) error { return nil }})
		if !errors.Is(err, context.Canceled) || n != 64 {
			t.Fatalf("cancelled after row 10: %v after %d rows, want context.Canceled after 64", err, n)
		}
		if _, err := tab.ScanPartitionRead(bg(), 0, Read{Cols: []int{1, 1}}); err == nil {
			t.Fatal("a column requested twice was accepted")
		}
		if _, err := tab.ScanPartitionRead(bg(), 0, Read{Cols: []int{3}}); err == nil {
			t.Fatal("a column out of range was accepted")
		}
		if dir == "" {
			continue
		}
		// On disk: a file cut at a row boundary, mid-row, and one with a
		// bad tag; then the corrupt-partition refusal.
		size, err := tab.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		path := tab.parts[0].path
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		one, _ := encodeRow(nil, row(0, 0, "r"))
		for _, cut := range []int64{size - int64(len(one)), size - 3, size - 9} {
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
			same(t, tab, bg, fmt.Sprintf("cut at %d of %d", cut, size))
		}
		if err := os.WriteFile(path, append(raw[:len(raw)-len(one)], 0x7f), 0o644); err != nil {
			t.Fatal(err)
		}
		same(t, tab, bg, "bad tag")
		tab.parts[0].corrupt = errors.New("torn rollback")
		same(t, tab, bg, "corrupt partition")
	}
}
