package storage

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/engine/obs"
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

// TestScanPartitionBlocksGathersTheTail: over two whole sealed chunks
// and a tail, a request for blocks hands its block consumer the chunks
// and its row consumer the tail, and only the chunks count in
// engine_columnar_blocks_scanned_total. ScanPartitionBlocks gathers the
// tail into a block of its own, lanes equal bit for bit to the block
// the same rows give once sealed.
func TestScanPartitionBlocksGathersTheTail(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	insertNumbered(t, tab, 0, 2*ChunkRows) // a commit that seals two chunks
	insertNumbered(t, tab, 2*ChunkRows, 2*ChunkRows+10)
	if si := tab.Segments()[0]; si.Rows != 2*ChunkRows || si.TailRows != 10 {
		t.Fatalf("partition %+v, want two chunks and a 10-row tail", si)
	}
	var blockRows, rows int
	before := obs.ColumnarBlocksScanned.Value()
	st, err := tab.ScanPartitionRead(context.Background(), 0, Read{Cols: []int{0, 1},
		Blocks: func(b *Block) error { blockRows += b.Rows; return nil },
		Rows:   func(sqltypes.Row) error { rows++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if blockRows != 2*ChunkRows || rows != 10 || st.Rows != 2*ChunkRows+10 {
		t.Fatalf("read %d rows as blocks and %d boxed (stats %d), want %d and 10", blockRows, rows, st.Rows, 2*ChunkRows)
	}
	if got := obs.ColumnarBlocksScanned.Value() - before; got != 2 {
		t.Fatalf("a scan of two chunks and a tail counted %d blocks, want 2", got)
	}
	var sizes []int
	before = obs.ColumnarBlocksScanned.Value()
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{1}, func(b *Block) error {
		sizes = append(sizes, b.Rows)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sizes, []int{ChunkRows, ChunkRows, 10}) || obs.ColumnarBlocksScanned.Value()-before != 2 {
		t.Fatalf("blocks of %v rows, %d counted; want [%d %d 10], 2 counted", sizes, obs.ColumnarBlocksScanned.Value()-before, ChunkRows, ChunkRows)
	}
	cols := []int{1, 0, 2}
	gv, gok, _ := collectBlocks(t, tab, 0, cols)
	blocksMatchRows(t, tab, cols)
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	sv, sok, _ := collectBlocks(t, tab, 0, cols)
	for s := range cols {
		for r := range gv[s] {
			if gok[s][r] != sok[s][r] || math.Float64bits(gv[s][r]) != math.Float64bits(sv[s][r]) {
				t.Fatalf("col %d row %d: gathered (%v,%v), sealed (%v,%v)", cols[s], r, gv[s][r], gok[s][r], sv[s][r], sok[s][r])
			}
		}
	}
}
