package storage

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
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

// segmentVals is collectBlocks over ScanPartitionSegment: blocks for
// the rows the segment covers, then the rest through the float decode
// (floats set) or boxed. It returns how many rows came as blocks.
func segmentVals(t *testing.T, tab *Table, p int, cols []int, floats bool) (vals [][]float64, valid [][]bool, blockRows int64) {
	t.Helper()
	vals = make([][]float64, len(cols))
	valid = make([][]bool, len(cols))
	blk := func(b *Block) error {
		blockRows += int64(b.Rows)
		for s := range cols {
			vals[s] = append(vals[s], b.Cols[s][:b.Rows]...)
			valid[s] = append(valid[s], b.Valid[s][:b.Rows]...)
		}
		return nil
	}
	var flt func([]float64) error
	if floats {
		flt = func(x []float64) error {
			for s := range cols {
				vals[s] = append(vals[s], x[s])
				valid[s] = append(valid[s], true)
			}
			return nil
		}
	}
	boxed := func(r sqltypes.Row) error {
		for s, c := range cols {
			f, ok := 0.0, false
			if !r[c].IsNull() {
				f, ok = r[c].Float()
			}
			if !ok {
				f = 0
			}
			vals[s] = append(vals[s], f)
			valid[s] = append(valid[s], ok)
		}
		return nil
	}
	st, err := tab.ScanPartitionSegment(context.Background(), p, cols, blk, flt, boxed)
	if err != nil {
		t.Fatal(err)
	}
	if want := tab.PartitionRowCounts()[p]; st.Rows != want {
		t.Fatalf("p%d: segment scan delivered %d rows, partition holds %d", p, st.Rows, want)
	}
	return vals, valid, blockRows
}

// segmentMatchesRows checks partition 0's segment scan, both tail
// decodes, against its row scan bit for bit, and that exactly the
// covered rows came as blocks.
func segmentMatchesRows(t *testing.T, tab *Table, covered int64) {
	t.Helper()
	cols := []int{1, 0}
	rv, rok := rowVals(t, tab, 0, cols)
	for _, floats := range []bool{true, false} {
		sv, sok, blockRows := segmentVals(t, tab, 0, cols, floats)
		if blockRows != covered {
			t.Fatalf("floats=%v: %d rows came as blocks, the segment covers %d", floats, blockRows, covered)
		}
		for s := range cols {
			for r := range rv[s] {
				if sok[s][r] != rok[s][r] || math.Float64bits(sv[s][r]) != math.Float64bits(rv[s][r]) {
					t.Fatalf("floats=%v col %d row %d: segment scan (%v,%v) vs row (%v,%v)",
						floats, cols[s], r, sv[s][r], sok[s][r], rv[s][r], rok[s][r])
				}
			}
		}
	}
}

// TestExtendSegmentsWaitsForAChunk: a block scan's ExtendSegments
// derives a partition's first segment whole, then leaves rows written
// since to the row log — which ScanPartitionSegment reads after the
// segment's blocks, in order — until they fill a chunk, and then
// encodes only them onto the file's end, leaving its bytes before
// untouched. EnsureSegments covers every row at once.
func TestExtendSegmentsWaitsForAChunk(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.ScanPartitionSegment(context.Background(), 0, []int{1}, discardBlock, nil, func(sqltypes.Row) error { return nil }); err != nil {
		t.Fatalf("segment scan of an empty partition: %v", err)
	}
	const first = ChunkRows + 900
	insertNumbered(t, tab, 0, first)
	_, err = tab.ScanPartitionSegment(context.Background(), 0, []int{1}, func(*Block) error {
		t.Fatal("a partition without a segment delivered a block")
		return nil
	}, nil, func(sqltypes.Row) error {
		t.Fatal("a partition without a segment delivered a row")
		return nil
	})
	if !errors.Is(err, ErrSegmentStale) {
		t.Fatalf("segment scan before any derivation: err = %v, want ErrSegmentStale", err)
	}
	if err := tab.ExtendSegments(); err != nil {
		t.Fatal(err)
	}
	cover := func() int64 { return tab.Segments()[0].Rows }
	if got := cover(); got != first {
		t.Fatalf("first derivation covers %d rows, want %d", got, first)
	}
	tab.mu.RLock()
	path := tab.segPathLocked(0)
	tab.mu.RUnlock()
	derived, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Short of a chunk: nothing is encoded, the tail comes from the log.
	next := first + ChunkRows - 1
	insertNumbered(t, tab, first, next)
	if err := tab.ExtendSegments(); err != nil {
		t.Fatal(err)
	}
	if got := cover(); got != first {
		t.Fatalf("a tail of %d rows moved the cover to %d", next-first, got)
	}
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{1}, discardBlock); !errors.Is(err, ErrSegmentStale) {
		t.Fatalf("whole-partition block scan of a covered prefix: err = %v, want ErrSegmentStale", err)
	}
	segmentMatchesRows(t, tab, first)

	// A chunk's worth: the tail is appended, in chunks of its own.
	insertNumbered(t, tab, next, next+1)
	if err := tab.ExtendSegments(); err != nil {
		t.Fatal(err)
	}
	if got := cover(); got != int64(next+1) {
		t.Fatalf("a full chunk of tail left the cover at %d, want %d", got, next+1)
	}
	extended, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(extended[:len(derived)], derived) {
		t.Fatal("extending the segment rewrote bytes it already held")
	}
	chunks := 0
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{0}, func(*Block) error { chunks++; return nil }); err != nil {
		t.Fatal(err)
	}
	if chunks != 3 {
		t.Fatalf("segment has %d chunks, want 2 derived + 1 appended", chunks)
	}
	segmentMatchesRows(t, tab, int64(next+1))
	blocksMatchRows(t, tab, []int{0, 1, 2})

	// EnsureSegments does not wait.
	insertNumbered(t, tab, next+1, next+4)
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	blocksMatchRows(t, tab, []int{0, 1, 2})
}

// TestSegmentScanInMemory: an in-memory table has no segments.
func TestSegmentScanInMemory(t *testing.T) {
	tab, err := NewTable("x", testSchema(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	insertNumbered(t, tab, 0, 10)
	if err := tab.ExtendSegments(); err != nil {
		t.Fatal(err)
	}
	_, err = tab.ScanPartitionSegment(context.Background(), 0, []int{1}, discardBlock, nil, func(sqltypes.Row) error {
		t.Fatal("an in-memory segment scan delivered a row")
		return nil
	})
	if !errors.Is(err, ErrSegmentStale) {
		t.Fatalf("in-memory segment scan: err = %v, want ErrSegmentStale", err)
	}
}
