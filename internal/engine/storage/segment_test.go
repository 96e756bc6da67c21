package storage

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine/sqltypes"
)

// collectBlocks scans partition p column-wise and returns the
// concatenated column values/validity for the requested ordinals.
func collectBlocks(t *testing.T, tab *Table, p int, cols []int) (vals [][]float64, valid [][]bool, rows int64) {
	t.Helper()
	vals = make([][]float64, len(cols))
	valid = make([][]bool, len(cols))
	st, err := tab.ScanPartitionBlocks(context.Background(), p, cols, func(b *Block) error {
		for s := range cols {
			vals[s] = append(vals[s], b.Cols[s][:b.Rows]...)
			valid[s] = append(valid[s], b.Valid[s][:b.Rows]...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vals, valid, st.Rows
}

// rowVals extracts the row-path view of the same columns for comparison.
func rowVals(t *testing.T, tab *Table, p int, cols []int) (vals [][]float64, valid [][]bool) {
	t.Helper()
	vals = make([][]float64, len(cols))
	valid = make([][]bool, len(cols))
	err := tab.ScanPartition(context.Background(), p, func(r sqltypes.Row) error {
		for s, c := range cols {
			var f float64
			ok := false
			if NumericColumn(tab.schema.Columns[c]) && !r[c].IsNull() {
				f, ok = r[c].Float()
			}
			if !ok {
				f = 0
			}
			vals[s] = append(vals[s], f)
			valid[s] = append(valid[s], ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vals, valid
}

// blocksMatchRows checks every partition's block scan of cols against
// its row scan, bit for bit, in memory and on disk, sealed rows or not.
func blocksMatchRows(t *testing.T, tab *Table, cols []int) {
	t.Helper()
	for p := 0; p < tab.Partitions(); p++ {
		bv, bok, _ := collectBlocks(t, tab, p, cols)
		rv, rok := rowVals(t, tab, p, cols)
		for s := range cols {
			if len(bv[s]) != len(rv[s]) {
				t.Fatalf("p%d col %d: block path has %d rows, row path %d", p, cols[s], len(bv[s]), len(rv[s]))
			}
			for r := range bv[s] {
				if bok[s][r] != rok[s][r] || math.Float64bits(bv[s][r]) != math.Float64bits(rv[s][r]) {
					t.Fatalf("p%d col %d row %d: block (%v,%v) vs row (%v,%v)",
						p, cols[s], r, bv[s][r], bok[s][r], rv[s][r], rok[s][r])
				}
			}
		}
	}
}

func insertMixed(t *testing.T, tab *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := row(int64(i), float64(i)*1.25, "tag")
		if i%5 == 0 {
			r[1] = sqltypes.Null
		}
		if i%7 == 0 {
			r[2] = sqltypes.Null
		}
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockScanMatchesRowScan: the blocks of rows sealed into short
// chunks — and of an in-memory table's rows, which are gathered — equal
// the row scan's lanes.
func TestBlockScanMatchesRowScan(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			tab, err := NewTable("x", testSchema(), dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			insertMixed(t, tab, 500)
			// EnsureSegments seals the rows into short chunks (and is a
			// no-op for the in-memory table, which has none).
			if err := tab.EnsureSegments(); err != nil {
				t.Fatal(err)
			}
			blocksMatchRows(t, tab, []int{0, 1})
			blocksMatchRows(t, tab, []int{1})
			// A varchar column yields no numeric lanes on either path.
			blocksMatchRows(t, tab, []int{2, 0})
		})
	}
}

func noSegmentFiles(t *testing.T, dir string) {
	t.Helper()
	for _, pat := range []string{"*.seg", "*.seg.tmp"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) != 0 {
			t.Fatalf("a write left segment files behind: %v", m)
		}
	}
}

// TestRolledBackLoadNeverReachesBlockScans: a bulk load whose partition
// fails to flush is rolled back in the row log; no later block scan may
// serve its rows. (The write-time mirror flushed them to the segment
// before the rollback, and EnsureSegments re-adopted that file as soon
// as a second load brought the row count back to match.)
func TestRolledBackLoadNeverReachesBlockScans(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	load := func(base int64) error {
		bl, err := tab.NewBulkLoader()
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 40; i++ {
			if err := bl.Add(row(base+i, float64(base+i), "v")); err != nil {
				t.Fatal(err)
			}
		}
		return bl.Close()
	}
	tab.SetFault(&Fault{Partition: 1, FlushClose: true})
	if err := load(0); err == nil {
		t.Fatal("faulted load succeeded")
	}
	tab.SetFault(nil)
	if err := load(1000); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	blocksMatchRows(t, tab, []int{0, 1})
}

// TestEnsureSegmentsRefusesMiscountedRowLog: a seal encodes exactly the
// rows the partition's accounting holds, so a row log that ends early
// or runs on past them is corrupt: nothing is sealed, the files stay as
// they were, and scans of the partition fail ErrCorrupt.
func TestEnsureSegmentsRefusesMiscountedRowLog(t *testing.T) {
	const rows = ChunkRows - 50
	for _, logRows := range []int{rows - 1000, rows - 1, rows + 3} {
		dir := t.TempDir()
		tab, err := NewTable("x", testSchema(), dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		var inserted []sqltypes.Row
		var log []byte
		for i := 0; i < max(rows, logRows); i++ {
			r := row(int64(i), float64(i)/4, "t")
			if i < rows {
				inserted = append(inserted, r)
			}
			if i < logRows {
				if log, err = encodeRow(log, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tab.Insert(inserted...); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tab.parts[0].path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tab.EnsureSegments(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a row log of %d rows for %d accounted: EnsureSegments = %v, want ErrCorrupt", logRows, rows, err)
		}
		noSegmentFiles(t, dir)
		if got, err := os.ReadFile(tab.parts[0].path); err != nil || !bytes.Equal(got, log) {
			t.Fatalf("a row log of %d rows: the failed seal rewrote it (%v)", logRows, err)
		}
		if si := tab.Segments()[0]; si.Rows != 0 || si.TailRows != rows {
			t.Fatalf("a row log of %d rows: partition %+v after the failed seal", logRows, si)
		}
		if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{1}, discardBlock); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a row log of %d rows: block scan err = %v, want ErrCorrupt", logRows, err)
		}
	}
}

func TestTruncateDropResetSegments(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	insertMixed(t, tab, 50)
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	for _, si := range tab.Segments() {
		if si.Rows != 0 || si.Bytes != 0 {
			t.Fatalf("truncate left segment state: %+v", si)
		}
	}
	// As many rows again as the removed segments held: nothing of them
	// may be served.
	for i := 0; i < 50; i++ {
		if err := tab.Insert(row(int64(1000+i), float64(i)*-2, "new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	blocksMatchRows(t, tab, []int{0, 1})
	if err := tab.Drop(); err != nil {
		t.Fatal(err)
	}
	noSegmentFiles(t, dir)
}

// encodeSegChunk encodes rows as one chunk, as a seal does.
func encodeSegChunk(buf []byte, schema *sqltypes.Schema, rows []sqltypes.Row) []byte {
	next := 0
	buf, _ = newChunkEncoder(schema).append(buf, len(rows), func() (sqltypes.Row, error) {
		next++
		return rows[next-1], nil
	})
	return buf
}

func TestSegmentDecoderRejectsCorruption(t *testing.T) {
	schema := testSchema()
	rows := []sqltypes.Row{row(1, 1.5, "a"), row(2, 2.5, "b")}
	good := encodeSegChunk(nil, schema, rows)

	check := func(name string, raw []byte) {
		t.Helper()
		_, err := readSegImage(raw, schema, []int{0, 1})
		if err == nil {
			t.Fatalf("%s: decoder accepted corrupt input", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	check("magic", bad)
	// Truncated mid-body.
	check("short body", good[:len(good)-5])
	// Row count out of range.
	bad = append([]byte{}, good...)
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF
	check("row count", bad)
	// Column count mismatch.
	bad = append([]byte{}, good...)
	bad[8] = 9
	check("ncols", bad)
	// Reserved header bytes set.
	bad = append([]byte{}, good...)
	bad[12]++
	check("reserved", bad)
	// Body length mismatch.
	bad = append([]byte{}, good...)
	bad[16]++
	check("bodyLen", bad)
	// A directory entry whose tag is not its column's type, or that gives
	// a numeric column a payload.
	bad = append([]byte{}, good...)
	bad[chunkHead+8]++
	check("tag", bad)
	bad = append([]byte{}, good...)
	bad[chunkHead+9]++
	check("payload on a numeric column", bad)
	// Trailing garbage after a valid chunk.
	check("trailing", append(append([]byte{}, good...), 'j', 'u', 'n', 'k'))
}

// FuzzDecodeSegment drives the chunk decoder — to blocks and to rows —
// and the row log's tail header with mutated real bytes: it must never
// panic, and every failure must be typed.
func FuzzDecodeSegment(f *testing.F) {
	schema := testSchema()
	var rows []sqltypes.Row
	for i := 0; i < 20; i++ {
		r := row(int64(i), float64(i)*0.5, "seed")
		if i%3 == 0 {
			r[1] = sqltypes.Null
		}
		rows = append(rows, r)
	}
	f.Add(encodeSegChunk(nil, schema, rows))
	f.Add(encodeSegChunk(nil, schema, rows[:1]))
	two := encodeSegChunk(nil, schema, rows[:7])
	f.Add(encodeSegChunk(two, schema, rows[7:]))
	f.Add([]byte(segMagic))
	// A whole SEG2 file, which must be refused, and a full chunk.
	parent, err := os.ReadFile(filepath.Join("testdata", "seg4096.p000.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add(encodeSegChunk(nil, schema, parentSegmentRows()[:ChunkRows]))
	// BIGINTs beyond ±2⁵³, NULL in every column, empty, multi-byte and
	// long VARCHARs; a tail header and the rows behind it.
	f.Add(encodeSegChunk(nil, schema, goldenRows()[:300]))
	tail := appendTailHead(nil, 4096)
	for _, r := range rows {
		if tail, err = encodeRow(tail, r); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(tail)
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped %s error: %v", what, err)
			}
		}
		blocks, err := readSegImage(data, schema, []int{0, 1, 2})
		typed("block decode", err)
		for _, blk := range blocks {
			for s := range blk.Cols {
				if len(blk.Cols[s]) != blk.Rows || len(blk.Valid[s]) != blk.Rows {
					t.Fatalf("block shape mismatch: rows=%d cols=%d valid=%d", blk.Rows, len(blk.Cols[s]), len(blk.Valid[s]))
				}
			}
		}
		decoded, err := readSegRows(data, schema)
		typed("row decode", err)
		for _, r := range decoded {
			for c, v := range r {
				if !v.IsNull() && v.Type() != schema.Columns[c].Type {
					t.Fatalf("column %d decoded a %v", c, v.Type())
				}
			}
		}
		_, n, err := parseTailHead(data[:min(len(data), tailHead)])
		typed("tail header", err)
		if err == nil {
			rr := newRowReader(bytes.NewReader(data[n:]), schema.Len())
			defer rr.release()
			for err == nil {
				_, err = rr.next(nil)
			}
			if err != io.EOF {
				typed("tail row", err)
			}
		}
	})
}
