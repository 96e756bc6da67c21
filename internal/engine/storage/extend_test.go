package storage

import (
	"context"
	"testing"

	"repro/internal/engine/sqltypes"
)

// insertNumbered inserts rows [from, to) of a fixed sequence with
// NULLs in both numeric columns, in one write.
func insertNumbered(t *testing.T, tab *Table, from, to int) {
	t.Helper()
	var rows []sqltypes.Row
	for i := from; i < to; i++ {
		r := row(int64(i), float64(i)*0.75, "v")
		if i%9 == 0 {
			r[1] = sqltypes.Null
		}
		if i%13 == 0 {
			r[0] = sqltypes.Null
		}
		rows = append(rows, r)
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentScanInMemory: an in-memory table has no chunks — nothing
// to seal, no segment state — and its block scans gather its rows into
// blocks of ChunkRows, lanes equal to its row scan's bit for bit.
func TestSegmentScanInMemory(t *testing.T) {
	tab, err := NewTable("x", testSchema(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	insertNumbered(t, tab, 0, ChunkRows+10)
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	if segs := tab.Segments(); segs != nil {
		t.Fatalf("an in-memory table reports segments %v", segs)
	}
	var sizes []int
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{1}, func(b *Block) error {
		sizes = append(sizes, b.Rows)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != ChunkRows || sizes[1] != 10 {
		t.Fatalf("in-memory block scan delivered blocks of %v rows, want [%d 10]", sizes, ChunkRows)
	}
	blocksMatchRows(t, tab, []int{0, 1, 2})
}
