package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

// mixedSchema interleaves the three stored types; n5 is NULL in every
// row, i6 in none, and late7 only from the partition's second chunk on.
func mixedSchema() *sqltypes.Schema {
	return sqltypes.MustSchema(
		sqltypes.Column{Name: "d0", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "i1", Type: sqltypes.TypeBigInt},
		sqltypes.Column{Name: "s2", Type: sqltypes.TypeVarChar},
		sqltypes.Column{Name: "d3", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "s4", Type: sqltypes.TypeVarChar},
		sqltypes.Column{Name: "n5", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "i6", Type: sqltypes.TypeBigInt},
		sqltypes.Column{Name: "late7", Type: sqltypes.TypeDouble},
	)
}

// mixedRow is row i of a partition-major fill: NULLs at random in the
// nullable columns, VARCHARs that sometimes look like numbers.
func mixedRow(rng *rand.Rand, i, parts int) sqltypes.Row {
	maybe := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(10) == 0 {
			return sqltypes.Null
		}
		return v
	}
	s := sqltypes.NewVarChar("tag")
	if rng.Intn(3) == 0 {
		s = sqltypes.NewVarChar(fmt.Sprint(rng.Float64() * 100))
	}
	late := sqltypes.NewDouble(float64(i) / 8)
	if i/parts >= ChunkRows && rng.Intn(4) == 0 {
		late = sqltypes.Null
	}
	return sqltypes.Row{
		maybe(sqltypes.NewDouble(rng.NormFloat64())),
		maybe(sqltypes.NewBigInt(rng.Int63n(1<<40) - 1<<39)),
		maybe(s),
		maybe(sqltypes.NewDouble(math.Float64frombits(rng.Uint64()))), // any bit pattern, NaNs included
		maybe(s),
		sqltypes.Null,
		sqltypes.NewBigInt(int64(i)),
		late,
	}
}

// TestBlockScanMatchesRowScanRandomSubsets: whatever subset of columns a
// block scan asks for, in whatever order, every lane it delivers equals
// the row scan's view of that column bit for bit — over a 1-row
// partition, partitions ending in a short chunk, an all-NULL column,
// and a column whose first chunk is NULL-free and whose later chunks
// are not.
func TestBlockScanMatchesRowScanRandomSubsets(t *testing.T) {
	schema := mixedSchema()
	for _, shape := range []struct{ rows, parts int }{
		{1, 1}, {3, 2}, {2 * ChunkRows, 1}, {4*ChunkRows + 37, 1}, {6*ChunkRows + 5, 2},
	} {
		for _, dir := range []string{"", t.TempDir()} {
			name := fmt.Sprintf("%dx%d/mem", shape.rows, shape.parts)
			if dir != "" {
				name = fmt.Sprintf("%dx%d/disk", shape.rows, shape.parts)
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(24 + shape.rows)))
				tab, err := NewTable("x", schema, dir, shape.parts)
				if err != nil {
					t.Fatal(err)
				}
				bl, err := tab.NewBulkLoader()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < shape.rows; i++ {
					if err := bl.Add(mixedRow(rng, i, shape.parts)); err != nil {
						t.Fatal(err)
					}
				}
				if err := bl.Close(); err != nil {
					t.Fatal(err)
				}
				if err := tab.EnsureSegments(); err != nil {
					t.Fatal(err)
				}
				all := rng.Perm(schema.Len())
				blocksMatchRows(t, tab, all)
				blocksMatchRows(t, tab, []int{7})
				blocksMatchRows(t, tab, []int{5, 2})
				for k := 0; k < 10; k++ {
					blocksMatchRows(t, tab, rng.Perm(schema.Len())[:1+rng.Intn(schema.Len())])
				}
			})
		}
	}
}

// readSegImage decodes a segment image held in memory through the
// reader every scan uses, returning a copy of each delivered block.
func readSegImage(raw []byte, schema *sqltypes.Schema, cols []int) ([]Block, error) {
	return readSeg(bytes.NewReader(raw), int64(len(raw)), schema, cols)
}

func readSeg(r io.ReaderAt, size int64, schema *sqltypes.Schema, cols []int) (blocks []Block, err error) {
	sr := newSegReader(r, size, schema, cols)
	defer sr.release()
	for {
		_, err := sr.head()
		if err == io.EOF {
			return blocks, nil
		}
		if err != nil {
			return blocks, err
		}
		blk, err := sr.block()
		if err != nil {
			return blocks, err
		}
		cp := Block{Rows: blk.Rows}
		for s := range blk.Cols {
			cp.Cols = append(cp.Cols, append([]float64(nil), blk.Cols[s]...))
			cp.Valid = append(cp.Valid, append([]bool(nil), blk.Valid[s]...))
		}
		blocks = append(blocks, cp)
	}
}

// readSegRows decodes a segment image held in memory to rows, through
// the reader every row scan uses.
func readSegRows(raw []byte, schema *sqltypes.Schema) (rows []sqltypes.Row, err error) {
	sr := newSegReader(bytes.NewReader(raw), int64(len(raw)), schema, nil)
	defer sr.release()
	for {
		_, err := sr.head()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		cc, err := sr.chunk()
		if err != nil {
			return rows, err
		}
		for r := range cc.sh.rows {
			row, err := cc.row(r, nil)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
}

func sameBlocks(t *testing.T, what string, got, want []Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks delivered, want %d", what, len(got), len(want))
	}
	for b := range got {
		if got[b].Rows != want[b].Rows {
			t.Fatalf("%s: block %d has %d rows, want %d", what, b, got[b].Rows, want[b].Rows)
		}
		for s := range got[b].Cols {
			if len(got[b].Cols[s]) != got[b].Rows || len(got[b].Valid[s]) != got[b].Rows {
				t.Fatalf("%s: block %d slot %d is %d/%d long, want %d", what, b, s, len(got[b].Cols[s]), len(got[b].Valid[s]), got[b].Rows)
			}
			for r := range got[b].Cols[s] {
				if got[b].Valid[s][r] != want[b].Valid[s][r] || math.Float64bits(got[b].Cols[s][r]) != math.Float64bits(want[b].Cols[s][r]) {
					t.Fatalf("%s: block %d slot %d row %d: (%v,%v), want (%v,%v)", what, b, s, r,
						got[b].Cols[s][r], got[b].Valid[s][r], want[b].Cols[s][r], want[b].Valid[s][r])
				}
			}
		}
	}
}

// TestSegmentReaderTruncatedOrFlipped: a segment cut at any byte offset
// that is not a chunk boundary, or with any byte of a chunk's header or
// directory entries changed — a column's tag or its padding — fails
// with ErrCorrupt, after delivering exactly the intact chunks before the
// damage, unchanged, and nothing of the damaged one.
func TestSegmentReaderTruncatedOrFlipped(t *testing.T) {
	schema := testSchema()
	var rows []sqltypes.Row
	for i := 0; i < 12; i++ {
		r := row(int64(i), float64(i)*0.5, "v")
		if i%4 == 1 {
			r[1] = sqltypes.Null
		}
		rows = append(rows, r)
	}
	first := encodeSegChunk(nil, schema, rows[:9]) // a two-byte bitmap
	img := encodeSegChunk(append([]byte(nil), first...), schema, rows[9:])
	chunkAt := []int{0, len(first)}
	for _, cols := range [][]int{{0, 1, 2}, {1}, {2, 0}, nil} {
		good, err := readSegImage(img, schema, cols)
		if err != nil || len(good) != 2 {
			t.Fatalf("cols %v: intact image: %d blocks, err %v", cols, len(good), err)
		}
		for cut := 0; cut < len(img); cut++ {
			what := fmt.Sprintf("cols %v cut at %d", cols, cut)
			got, err := readSegImage(img[:cut], schema, cols)
			intact := 0
			if cut >= len(first) {
				intact = 1
			}
			if cut == 0 || cut == len(first) {
				if err != nil {
					t.Fatalf("%s (a chunk boundary): %v", what, err)
				}
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
			}
			sameBlocks(t, what, got, good[:intact])
			// The same cut made after the scan sized the file: a chunk is
			// delivered when every byte the scan reads of it is still there.
			what += " under the scan"
			got, err = readSeg(bytes.NewReader(img[:cut]), int64(len(img)), schema, cols)
			if len(got) < intact || len(got) > len(good) || (err == nil) != (len(got) == len(good)) {
				t.Fatalf("%s: %d blocks delivered, err %v", what, len(got), err)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
			}
			sameBlocks(t, what, got, good[:len(got)])
		}
		// Every header byte, then every byte of every column's directory
		// entry, of each chunk: the reader checks them all, whichever
		// columns it was asked for.
		for c, at := range chunkAt {
			for pos := at; pos < at+16+8*schema.Len(); pos++ {
				for _, x := range []byte{0x01, 0x02, 0x80, 0xff} {
					what := fmt.Sprintf("cols %v byte %d ^ %#x", cols, pos, x)
					bad := append([]byte(nil), img...)
					bad[pos] ^= x
					got, err := readSegImage(bad, schema, cols)
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
					}
					sameBlocks(t, what, got, good[:c])
				}
			}
		}
	}
}

// wideTable loads rows of d DOUBLE columns X1..Xd into one on-disk
// partition and derives its segment.
func wideTable(tb testing.TB, d, rows int) *Table {
	tb.Helper()
	cols := make([]sqltypes.Column, d)
	for i := range cols {
		cols[i] = sqltypes.Column{Name: fmt.Sprintf("X%d", i+1), Type: sqltypes.TypeDouble}
	}
	tab, err := NewTable("x", sqltypes.MustSchema(cols...), tb.TempDir(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	bl, err := tab.NewBulkLoader()
	if err != nil {
		tb.Fatal(err)
	}
	r := make(sqltypes.Row, d)
	for i := 0; i < rows; i++ {
		for c := range r {
			r[c] = sqltypes.NewDouble(float64(i*d + c))
		}
		if err := bl.Add(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := bl.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := tab.EnsureSegments(); err != nil {
		tb.Fatal(err)
	}
	return tab
}

func ordinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func discardBlock(*Block) error { return nil }

// TestBlockScanReadsOnlyRequestedColumns: ScanStats.Bytes (and the
// process-wide counter behind engine_bytes_read_total) is what the scan
// read, which for 3 of 33 columns is well under a fifth of the segment
// and for all 33 is the segment, once.
func TestBlockScanReadsOnlyRequestedColumns(t *testing.T) {
	tab := wideTable(t, 33, 2*ChunkRows+100)
	seg := tab.Segments()[0].Bytes
	scan := func(cols []int) int64 {
		t.Helper()
		before := obs.BytesRead.Value()
		st, err := tab.ScanPartitionBlocks(context.Background(), 0, cols, discardBlock)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rows != 2*ChunkRows+100 {
			t.Fatalf("scanned %d rows", st.Rows)
		}
		if got := obs.BytesRead.Value() - before; got != st.Bytes {
			t.Fatalf("bytes-read counter moved by %d, the scan reports %d", got, st.Bytes)
		}
		return st.Bytes
	}
	if got := scan([]int{0, 1, 2}); got >= seg/5 || got < 3*8*(2*ChunkRows+100) {
		t.Fatalf("a 3-of-33-column scan read %d of the segment's %d bytes", got, seg)
	}
	if got := scan(ordinals(33)); got != seg {
		t.Fatalf("a full-width scan read %d bytes, the segment is %d", got, seg)
	}
}

// countingReader counts the positional reads made of a segment image.
type countingReader struct {
	io.ReaderAt
	reads int
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.ReaderAt.ReadAt(p, off)
}

// TestSegmentReadsPerChunk: a chunk costs one read of its header and
// directory plus one per run of adjacent requested numeric columns,
// however wide the schema and whichever columns go unread; a
// non-numeric column is never read.
func TestSegmentReadsPerChunk(t *testing.T) {
	const rows = 2*ChunkRows + 100 // three chunks
	tab := wideTable(t, 33, rows)
	tab.mu.RLock()
	img, err := os.ReadFile(tab.segPathLocked(0))
	tab.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cols []int
		runs int
	}{
		{nil, 0}, {[]int{1}, 1}, {[]int{0, 1, 2}, 1}, {[]int{2, 0, 1}, 1}, {ordinals(33), 1},
		{[]int{0, 2, 4}, 3}, {[]int{32, 0, 1, 31}, 2},
	} {
		cr := &countingReader{ReaderAt: bytes.NewReader(img)}
		blocks, err := readSeg(cr, int64(len(img)), tab.schema, c.cols)
		if err != nil || len(blocks) != 3 {
			t.Fatalf("cols %v: %d blocks, err %v", c.cols, len(blocks), err)
		}
		if want := 3 * (1 + c.runs); cr.reads != want {
			t.Fatalf("cols %v: %d reads over 3 chunks, want %d", c.cols, cr.reads, want)
		}
	}
	// A VARCHAR between numeric columns splits their run and is not read.
	schema := mixedSchema()
	rng := rand.New(rand.NewSource(3))
	mixed := make([]sqltypes.Row, 10)
	for i := range mixed {
		mixed[i] = mixedRow(rng, i, 1)
	}
	raw := encodeSegChunk(nil, schema, mixed)
	cr := &countingReader{ReaderAt: bytes.NewReader(raw)}
	if _, err := readSeg(cr, int64(len(raw)), schema, []int{0, 1, 2, 3, 4}); err != nil || cr.reads != 3 {
		t.Fatalf("d0 i1 s2 d3 s4: %d reads, err %v; want 3", cr.reads, err)
	}
}

// TestBlockScanRejectsRepeatedOrdinals: a block has one slot per
// requested column, so a column asked for twice is refused before
// anything is read, as the float scan refuses it, in memory and on disk.
func TestBlockScanRejectsRepeatedOrdinals(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		tab, err := NewTable("x", testSchema(), dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		insertMixed(t, tab, 20)
		if err := tab.EnsureSegments(); err != nil {
			t.Fatal(err)
		}
		for _, cols := range [][]int{{1, 1}, {0, 1, 0}, {3}, {-1}} {
			called := false
			if _, err := tab.ScanPartitionBlocks(context.Background(), 0, cols, func(*Block) error { called = true; return nil }); err == nil || called {
				t.Fatalf("dir %q: a block scan of %v returned %v after delivering %v", dir, cols, err, called)
			}
		}
		blocksMatchRows(t, tab, []int{1, 0})
	}
}

// TestBlockMask: a block's row mask over some of its slots is the AND
// of their validity lanes — all true over none, or over lanes without a
// NULL — computed into the caller's buffer, never into the shared lane.
func TestBlockMask(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	insertMixed(t, tab, 40) // i is never NULL, x is in rows 0, 5, 10, ...
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	var buf []bool
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{0, 1}, func(b *Block) error {
		for _, c := range []struct {
			slots []int
			valid func(r int) bool
		}{
			{nil, func(int) bool { return true }},
			{[]int{0}, func(int) bool { return true }},
			{[]int{1, 0, 1}, func(r int) bool { return r%5 != 0 }},
		} {
			buf = b.Mask(c.slots, buf)
			if len(buf) != b.Rows {
				t.Fatalf("mask over %v has %d rows, the block %d", c.slots, len(buf), b.Rows)
			}
			for r, ok := range buf {
				if ok != c.valid(r) {
					t.Fatalf("mask over %v: row %d is %v", c.slots, r, ok)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockScanAllocatesPerScanNotPerChunk: a warm scan's lanes come
// from the pool and are reused chunk after chunk, so a 16-chunk
// partition costs a scan the same few objects as a 1-chunk one.
func TestBlockScanAllocatesPerScanNotPerChunk(t *testing.T) {
	allocs := func(chunks int) float64 {
		tab := wideTable(t, 2, chunks*ChunkRows)
		cols := []int{0, 1}
		return testing.AllocsPerRun(10, func() {
			if _, err := tab.ScanPartitionBlocks(context.Background(), 0, cols, discardBlock); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, sixteen := allocs(1), allocs(16)
	// The slack covers a pool refill after a GC (four lanes), not
	// chunks: one object per chunk would be 15 apart.
	if sixteen > one+6 || sixteen > 40 {
		t.Fatalf("%v allocations over 16 chunks, %v over 1", sixteen, one)
	}
	t.Logf("allocations per scan: %v over 1 chunk, %v over 16", one, sixteen)
}

// BenchmarkBlockScan reads the benchmark ledger's table shape (d = 33,
// here 8 chunks in one partition) with a no-op consumer: every column,
// and the three a narrow projection asks for.
func BenchmarkBlockScan(b *testing.B) {
	const rows = 8 * ChunkRows
	tab := wideTable(b, 33, rows)
	for _, bc := range []struct {
		name string
		cols []int
	}{{"all33", ordinals(33)}, {"3of33", []int{0, 1, 2}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st ScanStats
			for i := 0; i < b.N; i++ {
				var err error
				if st, err = tab.ScanPartitionBlocks(context.Background(), 0, bc.cols, discardBlock); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(st.Bytes)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// TestMain checks, once every storage test has run, that no scan wrote
// through the lanes NULL-free and non-numeric columns share.
func TestMain(m *testing.M) {
	code := m.Run()
	for r := range allValid {
		if !allValid[r] || noneValid[r] || math.Float64bits(noValues[r]) != 0 {
			fmt.Fprintf(os.Stderr, "a shared lane was written through at lane %d\n", r)
			code = 1
			break
		}
	}
	os.Exit(code)
}
