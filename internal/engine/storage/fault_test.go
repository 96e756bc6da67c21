package storage

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

// fill inserts n rows one batch at a time so they round-robin evenly.
func fill(t *testing.T, tab *Table, n int) {
	t.Helper()
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = row(int64(i), float64(i), "r")
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

func TestFaultScanOpen(t *testing.T) {
	tab, _ := NewTable("x", testSchema(), "", 4)
	fill(t, tab, 8)
	sentinel := errors.New("injected open failure")
	tab.SetFault(&Fault{Partition: 2, ScanOpen: true, Err: sentinel})
	if err := tab.ScanPartition(nil, 2, func(sqltypes.Row) error { return nil }); !errors.Is(err, sentinel) {
		t.Fatalf("want injected open error, got %v", err)
	}
	// Other partitions are unaffected.
	if err := tab.ScanPartition(nil, 1, func(sqltypes.Row) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tab.SetFault(nil)
	if err := tab.ScanPartition(nil, 2, func(sqltypes.Row) error { return nil }); err != nil {
		t.Fatalf("cleared fault still fires: %v", err)
	}
}

func TestFaultScanAfterRows(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		tab, err := NewTable("x", testSchema(), dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, tab, 100) // 50 per partition
		tab.ResetScannedRows()
		tab.SetFault(&Fault{Partition: 0, ScanAfterRows: 7})
		var delivered int64
		st, err := tab.ScanPartitionStats(nil, 0, func(sqltypes.Row) error { delivered++; return nil })
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("want injected fault, got %v", err)
		}
		if delivered != 7 || st.Rows != 7 {
			t.Fatalf("delivered %d rows (stats %d), want 7", delivered, st.Rows)
		}
		if got := tab.ScannedRows(); got != 7 {
			t.Fatalf("ScannedRows = %d, want 7", got)
		}
		tab.SetFault(nil)
	}
}

func TestScanContextCancellation(t *testing.T) {
	tab, _ := NewTable("x", testSchema(), "", 1)
	fill(t, tab, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	err := tab.ScanPartition(ctx, 0, func(sqltypes.Row) error {
		n++
		if n == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Cancellation is observed at the next 64-row check, well short of
	// the full scan.
	if n >= 1000 {
		t.Fatalf("scan ran to completion (%d rows) despite cancellation", n)
	}
}

func TestScanPartitionStatsBytes(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tab, 25)
	st, err := tab.ScanPartitionStats(nil, 0, func(sqltypes.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 25 {
		t.Fatalf("stats rows = %d", st.Rows)
	}
	size, err := tab.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != size {
		t.Fatalf("stats bytes = %d, file size = %d", st.Bytes, size)
	}
	// In-memory tables report zero bytes.
	mem, _ := NewTable("m", testSchema(), "", 1)
	fill(t, mem, 5)
	mst, err := mem.ScanPartitionStats(nil, 0, func(sqltypes.Row) error { return nil })
	if err != nil || mst.Bytes != 0 || mst.Rows != 5 {
		t.Fatalf("mem stats = %+v, %v", mst, err)
	}
}
