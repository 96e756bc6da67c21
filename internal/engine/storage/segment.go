package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/engine/sqltypes"
)

// Columnar segments are a cache derived from the row log: an on-disk
// partition may carry a sibling `.seg` file holding the same rows
// re-encoded column-wise, so the batch execution path decodes only the
// columns a query references and hands them to vector kernels as
// []float64 slices. The row log is the single source of truth and the
// only thing a write touches: Insert and BulkLoader leave the segment
// covering a prefix of the rows. A derivation (ExtendSegments, called by
// the executor ahead of a block scan, or EnsureSegments) is the one
// place a segment file is written: it encodes the rows the segment does
// not cover onto its end, so a table no statement block-scans never
// pays for one, and a row is encoded once however often it is scanned.
// A block scan reads the covered rows as blocks and the rest from the
// row log (ScanPartitionSegment).
//
// File layout: a sequence of chunks, each
//
//	header:    magic "SEG2" | u32 rows (1..ChunkRows) | u32 ncols |
//	           u32 bodyLen (directory and column blocks)
//	directory: per column, its tag byte (1 = numeric, 0 = other) and
//	           seven zero bytes; then min f64 | max f64 per numeric column
//	blocks:    per column in schema order, the valid bitmap (bit set =
//	           numeric value present; for non-numeric columns: value is
//	           non-NULL), zero-padded to 8 bytes, then, for a numeric
//	           column, rows × f64 values (little-endian, invalid lanes
//	           zero-filled)
//
// so every block starts 8-byte aligned. BIGINT values are stored as
// float64 via the same conversion the row-at-a-time n/L/Q scan applies
// (Value.Float), so block kernels see exactly the operands the row path
// would.
//
// A reader fetches a chunk's header and directory in one positional
// read, checking every column's entry there, then each run of adjacent
// requested numeric columns in one more, straight into the float64
// buffer its lanes are views of. Chunks are ChunkRows rows, the last
// one short: the chunk bounds a concurrent scan's memory. A file of
// another layout (the SEG1 chunks earlier writers emitted) fails
// adoption and is derived again from the row log.
const segMagic = "SEG2"

// ChunkRows is the row count of a segment chunk, the unit block scans
// decode. The executor sizes its scan fan-out in it too: one worker per
// chunk of rows to read.
const ChunkRows = 2048

// ErrSegmentStale reports that a partition's segment file does not
// cover the rows a scan needs from it; callers fall back to the row
// log (and may EnsureSegments to derive it).
var ErrSegmentStale = errors.New("storage: segment stale")

// segUnverified is the covered row count of a partition OpenTable just
// attached: the first derivation adopts or replaces the file a previous
// process left. Inside one process a segment is only ever behind.
const segUnverified = -1

// Block is one decoded batch of column data delivered to block-scan
// callbacks. Slices are reused between callbacks and, for a NULL-free
// column's Valid and both lanes of a non-numeric column, shared between
// scans: callers copy anything they retain and never write through
// them. Cols/Valid are indexed parallel to the requested column list,
// not by schema ordinal. Valid reports "numeric value present": NULLs
// and non-numeric columns are false (with the corresponding Cols lane
// zero-filled).
type Block struct {
	Rows  int
	Cols  [][]float64
	Valid [][]bool
}

// Mask appends to buf[:0] the rows valid in every one of the given
// slots. A segment column without NULLs in the chunk is delivered with
// the shared all-true lane, and is skipped unread.
func (b *Block) Mask(slots []int, buf []bool) []bool {
	mask := append(buf[:0], allValid[:b.Rows]...)
	for _, s := range slots {
		if v := b.Valid[s]; &v[0] != &allValid[0] {
			for r, ok := range v {
				mask[r] = mask[r] && ok
			}
		}
	}
	return mask
}

// NumericColumn reports whether a schema column carries values in
// segment blocks, the rule every unboxed source shares. It is by declared
// type, not by stored value: a VARCHAR that happens to parse as a number
// must not sneak into numeric kernels on one path and not the other.
func NumericColumn(c sqltypes.Column) bool {
	return c.Type == sqltypes.TypeDouble || c.Type == sqltypes.TypeBigInt
}

// segPath derives the segment filename for partition p.
func (t *Table) segPathLocked(p int) string {
	return strings.TrimSuffix(t.parts[p].path, ".dat") + ".seg"
}

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// segShape is the part of a chunk's layout its schema fixes: the
// directory's length and, per column and past the last, how many
// numeric columns precede it.
type segShape struct {
	dirLen    int
	numBefore []int
	nnum      int
}

func newSegShape(schema *sqltypes.Schema) segShape {
	sh := segShape{numBefore: make([]int, schema.Len()+1)}
	for c, col := range schema.Columns {
		sh.numBefore[c] = sh.nnum
		if NumericColumn(col) {
			sh.nnum++
		}
	}
	sh.numBefore[schema.Len()] = sh.nnum
	sh.dirLen = 8*schema.Len() + 16*sh.nnum
	return sh
}

// blockAt is the offset of column c's block from the start of an
// nrows-row chunk whose bitmaps are bmLen bytes.
func (sh *segShape) blockAt(c, bmLen, nrows int) int {
	return 16 + sh.dirLen + c*bmLen + 8*nrows*sh.numBefore[c]
}

// bodyLen is the length of an nrows-row chunk after its header.
func (sh *segShape) bodyLen(bmLen, nrows int) int {
	return sh.blockAt(len(sh.numBefore)-1, bmLen, nrows) - 16
}

// appendSegChunk appends one chunk of nrows (≤ ChunkRows) rows to
// buf, taking them in order from next. The chunk is laid out first and
// filled row by row, so each row is read once and none is kept, however
// many columns there are.
func appendSegChunk(buf []byte, schema *sqltypes.Schema, nrows int, next func() (sqltypes.Row, error)) ([]byte, error) {
	sh := newSegShape(schema)
	bmLen := pad8((nrows + 7) / 8)
	mn, mx := make([]float64, sh.nnum), make([]float64, sh.nnum)
	for k := range mn {
		mn[k], mx[k] = math.Inf(1), math.Inf(-1)
	}
	at := make([]int, schema.Len()) // each column's block
	for c := range at {
		at[c] = sh.blockAt(c, bmLen, nrows)
	}
	start := len(buf)
	buf = append(buf, make([]byte, 16+sh.bodyLen(bmLen, nrows))...) // invalid lanes stay zero
	chunk := buf[start:]
	copy(chunk, segMagic)
	binary.LittleEndian.PutUint32(chunk[4:], uint32(nrows))
	binary.LittleEndian.PutUint32(chunk[8:], uint32(schema.Len()))
	binary.LittleEndian.PutUint32(chunk[12:], uint32(len(chunk)-16))
	for r := range nrows {
		row, err := next()
		if err != nil {
			return buf, err
		}
		bit := byte(1) << (r % 8)
		for c, col := range schema.Columns {
			v := row[c]
			if v.IsNull() {
				continue
			}
			if !NumericColumn(col) {
				chunk[at[c]+r/8] |= bit
				continue
			}
			if f, ok := v.Float(); ok {
				k := sh.numBefore[c]
				chunk[at[c]+r/8] |= bit
				binary.LittleEndian.PutUint64(chunk[at[c]+bmLen+8*r:], math.Float64bits(f))
				if f < mn[k] {
					mn[k] = f
				}
				if f > mx[k] {
					mx[k] = f
				}
			}
		}
	}
	minMax := chunk[16+8*schema.Len():]
	for c, col := range schema.Columns {
		if NumericColumn(col) {
			k := sh.numBefore[c]
			chunk[16+8*c] = 1
			binary.LittleEndian.PutUint64(minMax[16*k:], math.Float64bits(mn[k]))
			binary.LittleEndian.PutUint64(minMax[16*k+8:], math.Float64bits(mx[k]))
		}
	}
	return buf, nil
}

// allValid is the Valid lane of every NULL-free column: read-only by
// Block's contract, shared by every scan in the process. noneValid and
// noValues are the lanes of every requested non-numeric column, shared
// the same way.
var (
	allValid = func() (v [ChunkRows]bool) {
		for i := range v {
			v[i] = true
		}
		return v
	}()
	noneValid [ChunkRows]bool
	noValues  [ChunkRows]float64
)

// blockBuf is the backing of one scan's Block: the chunk header and
// directory, the requested numeric columns' blocks — bitmaps and values
// — and a validity lane per requested column, pooled across scans so a
// scan allocates no column memory once the pool is warm.
type blockBuf struct {
	blk   Block
	head  []byte
	run   []float64 // the lanes are views of it
	valid [][]bool  // the tallest chunk read with a clear bit, each
}

var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// getBlockBuf leases a buffer with slots for k columns; its buffers grow
// to the chunks read.
func getBlockBuf(k int) *blockBuf {
	bb := blockBufs.Get().(*blockBuf)
	for len(bb.valid) < k {
		bb.valid = append(bb.valid, nil)
	}
	if cap(bb.blk.Cols) < k {
		bb.blk.Cols, bb.blk.Valid = make([][]float64, k), make([][]bool, k)
	}
	bb.blk.Cols, bb.blk.Valid = bb.blk.Cols[:k], bb.blk.Valid[:k]
	return bb
}

// grow returns buf resized to n, reallocated only when it must grow.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// nativeLittleEndian: segment values are little-endian on disk, which
// is how this host lays a float64 out in memory.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views a float buffer as the bytes a segment read fills. A
// host whose float64 layout is not the file's swaps the values in place
// afterwards (segReader.next).
func floatBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// segRun is n adjacent requested numeric columns from schema ordinal
// first on, read in one call.
type segRun struct{ first, n int }

// segReader reads consecutive chunks of a segment, surfacing only the
// requested schema ordinals into a pooled Block. A chunk costs one
// positional read of its header and directory, then one per run of
// adjacent requested numeric columns; nothing else is read.
type segReader struct {
	r      io.ReaderAt
	size   int64
	off    int64
	schema *sqltypes.Schema
	shape  segShape
	runs   []segRun // the requested numeric columns, run by run
	nreq   int      // requested numeric columns
	place  []int    // per slot, its block's index in the run buffer; -1 when not read
	buf    *blockBuf
	bytes  int64 // bytes read so far
}

// newSegReader reads the size-byte segment r. release returns its Block
// to the pool.
func newSegReader(r io.ReaderAt, size int64, schema *sqltypes.Schema, want []int) *segReader {
	sr := &segReader{r: r, size: size, schema: schema, shape: newSegShape(schema),
		place: make([]int, len(want)), buf: getBlockBuf(len(want))}
	read := make([]bool, schema.Len()) // by schema ordinal
	for _, c := range want {
		read[c] = NumericColumn(schema.Columns[c])
	}
	index := make([]int, schema.Len())
	for c, ok := range read {
		if !ok {
			continue
		}
		index[c] = sr.nreq
		sr.nreq++
		if k := len(sr.runs) - 1; k >= 0 && sr.runs[k].first+sr.runs[k].n == c {
			sr.runs[k].n++
		} else {
			sr.runs = append(sr.runs, segRun{first: c, n: 1})
		}
	}
	for s, c := range want {
		sr.place[s] = -1
		if read[c] {
			sr.place[s] = index[c]
		}
	}
	return sr
}

func (sr *segReader) release() {
	blockBufs.Put(sr.buf)
	sr.buf = nil
}

// read fills dst from offset at. The caller has checked the range
// against the segment's size, so a short read means the file shrank
// underneath the scan.
func (sr *segReader) read(dst []byte, at int64) error {
	n, err := sr.r.ReadAt(dst, at)
	sr.bytes += int64(n)
	if n < len(dst) {
		return corruptf("storage: segment read of %d bytes at %d returned %d: %w", len(dst), at, n, err)
	}
	return nil
}

// next reads one chunk into the reader's Block. io.EOF is returned
// cleanly at end of stream; every other failure wraps ErrCorrupt, and
// nothing of a chunk is delivered unless all of it checked out.
func (sr *segReader) next() (*Block, error) {
	if sr.off == sr.size {
		return nil, io.EOF
	}
	ncols := sr.schema.Len()
	head := grow(&sr.buf.head, 16+sr.shape.dirLen)
	if sr.size-sr.off < int64(len(head)) {
		return nil, corruptf("storage: truncated segment chunk header")
	}
	if err := sr.read(head, sr.off); err != nil {
		return nil, err
	}
	if string(head[:4]) != segMagic {
		return nil, corruptf("storage: bad segment chunk magic %q", string(head[:4]))
	}
	nrows := int(binary.LittleEndian.Uint32(head[4:8]))
	if nrows < 1 || nrows > ChunkRows {
		return nil, corruptf("storage: segment chunk row count %d out of range 1..%d", nrows, ChunkRows)
	}
	if n := int(binary.LittleEndian.Uint32(head[8:12])); n != ncols {
		return nil, corruptf("storage: segment chunk has %d columns, schema has %d", n, ncols)
	}
	// A column's block is sized by its declared type (its tag must agree,
	// below), so the body's length is known before any of it is read.
	bmLen := pad8((nrows + 7) / 8)
	body := int64(sr.shape.bodyLen(bmLen, nrows))
	if bodyLen := int64(binary.LittleEndian.Uint32(head[12:16])); bodyLen != body {
		return nil, corruptf("storage: segment chunk body is %d bytes, header says %d", body, bodyLen)
	}
	if sr.size-sr.off-16 < body {
		return nil, corruptf("storage: truncated segment chunk body")
	}
	for c, col := range sr.schema.Columns {
		var tag uint64
		if NumericColumn(col) {
			tag = 1
		}
		if e := binary.LittleEndian.Uint64(head[16+8*c:]); e != tag {
			return nil, corruptf("storage: segment column %d has directory entry %#x, its type says tag %d", c, e, tag)
		}
	}
	// Each numeric block read is bmLen/8 floats of bitmap, then values.
	stride := bmLen/8 + nrows
	run := grow(&sr.buf.run, sr.nreq*stride)
	for _, rn := range sr.runs {
		dst := run[:rn.n*stride]
		run = run[len(dst):]
		if err := sr.read(floatBytes(dst), sr.off+int64(sr.shape.blockAt(rn.first, bmLen, nrows))); err != nil {
			return nil, err
		}
		if !nativeLittleEndian {
			for k := range rn.n {
				vals := dst[k*stride+bmLen/8 : (k+1)*stride]
				for r, v := range vals {
					vals[r] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
				}
			}
		}
	}
	blk := &sr.buf.blk
	blk.Rows = nrows
	run = sr.buf.run
	for s, k := range sr.place {
		if k < 0 {
			// A requested non-numeric column has no operands: every lane
			// invalid, whatever its (informational) bitmap says.
			blk.Cols[s], blk.Valid[s] = noValues[:nrows], noneValid[:nrows]
			continue
		}
		lane := run[k*stride : (k+1)*stride]
		blk.Cols[s] = lane[bmLen/8:]
		blk.Valid[s] = sr.buf.validity(s, floatBytes(lane)[:(nrows+7)/8], nrows)
	}
	sr.off += 16 + body
	return blk, nil
}

// fullBitmap is the bitmap of a full chunk without NULLs.
var fullBitmap = bytes.Repeat([]byte{0xff}, ChunkRows/8)

// validity returns the validity lane of slot s's column in an
// nrows-row chunk whose bitmap is bm: the shared all-true lane when no
// bit of the first nrows is clear, else the slot's own lane filled a
// byte at a time.
func (bb *blockBuf) validity(s int, bm []byte, nrows int) []bool {
	whole, rest := nrows/8, byte(1)<<(nrows%8)-1
	if bytes.Equal(bm[:whole], fullBitmap[:whole]) && bm[len(bm)-1]&rest == rest {
		return allValid[:nrows]
	}
	dst := grow(&bb.valid[s], nrows)
	for i, b := range bm {
		lanes := dst[i*8 : min(i*8+8, nrows)]
		for r := range lanes {
			lanes[r] = b&(1<<r) != 0
		}
	}
	return dst
}

// countSegRows walks an existing segment file's chunks, checking
// structural integrity and returning the total row count. Used to adopt
// a segment left by a previous process.
func countSegRows(path string, schema *sqltypes.Schema) (rows, size int64, err error) {
	f, size, err := openSeg(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sr := newSegReader(f, size, schema, nil)
	defer sr.release()
	for {
		blk, err := sr.next()
		if err == io.EOF {
			return rows, size, nil
		}
		if err != nil {
			return rows, size, err
		}
		rows += int64(blk.Rows)
	}
}

// openSeg opens a segment file for positional reads.
func openSeg(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// segCover is what a partition's segment file covers: the row log's
// first Rows rows, which end at Offset in it, held by the file's first
// bytes bytes. Rows is segUnverified while a file a previous process
// left awaits its first derivation.
type segCover struct {
	Mark
	bytes int64
}

// EnsureSegments makes every partition's segment cover all its current
// rows (ExtendSegments with no chunk to wait for).
func (t *Table) EnsureSegments() error { return t.deriveSegments(1) }

// ExtendSegments is what the executor calls ahead of a block scan. A
// partition whose segment covers none of its rows gets one derived from
// its whole row log; one whose segment covers some gets the rows
// appended since it was derived encoded onto its end, but only once
// they fill a chunk: until then ScanPartitionSegment reads them from
// the row log, since encoding a row costs several times reading it. So
// every row is encoded once, and a write followed by a scan pays at most
// the encoding of the rows it added. In-memory tables have no segments.
func (t *Table) ExtendSegments() error { return t.deriveSegments(ChunkRows) }

// deriveSegments extends each partition's segment by the rows it does
// not cover once there are at least minTail of them, or at once while
// it covers none. A partition OpenTable attached first adopts the file
// a previous process left when it is structurally intact and holds
// exactly the partition's rows. A partition that cannot be derived
// stays behind — block scans read its row log — and the first failure
// is returned once the others have been tried. It takes the table lock,
// so it must not be called from scan callbacks.
func (t *Table) deriveSegments(minTail int64) error {
	if t.dir == "" {
		return nil
	}
	t.segMu.Lock()
	defer t.segMu.Unlock()
	var first error
	for p := range t.Partitions() {
		if err := t.deriveSegment(p, minTail); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// deriveSegment works under the read lock, as a scan does — it reads
// the row log and writes only past the bytes the segment covers, which
// no scan reads — so writers wait for it no longer than for a scan. It
// publishes the new cover under the write lock unless the epoch moved
// in between (a truncate or drop removed the file).
func (t *Table) deriveSegment(p int, minTail int64) error {
	t.mu.RLock()
	epoch := t.epoch.Load()
	seg, err := t.deriveSegLocked(p, minTail)
	t.mu.RUnlock()
	if err != nil || seg == nil {
		return err
	}
	t.mu.Lock()
	if t.epoch.Load() == epoch {
		t.parts[p].seg = *seg
	}
	t.mu.Unlock()
	return nil
}

// deriveSegLocked returns partition p's new cover, nil when it stays.
func (t *Table) deriveSegLocked(p int, minTail int64) (*segCover, error) {
	part := &t.parts[p]
	if part.corrupt != nil {
		return nil, nil // row scans of this partition fail loudly already
	}
	seg, adopted := part.seg, false
	if seg.Rows == segUnverified {
		n, size, err := countSegRows(t.segPathLocked(p), t.schema)
		if err == nil && n == part.rows {
			return &segCover{Mark{Rows: n, Offset: part.size}, size}, nil
		}
		seg, adopted = segCover{}, true
	}
	if tail := part.rows - seg.Rows; tail == 0 || seg.Rows > 0 && tail < minTail {
		if adopted {
			return &seg, nil
		}
		return nil, nil
	}
	return t.appendSegLocked(p, seg)
}

// appendSegLocked encodes partition p's rows after seg onto the end of
// its segment file, the only place a segment file is written. Rows are
// decoded one at a time from seg's offset in the row log and encoded
// straight into the chunk being built. Whatever lies past seg's bytes
// is cut first, and again when the derivation fails — a file with no
// cover is removed.
func (t *Table) appendSegLocked(p int, seg segCover) (_ *segCover, err error) {
	part := &t.parts[p]
	src, err := os.Open(part.path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer src.Close()
	if _, err := src.Seek(seg.Offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	dst, err := os.OpenFile(t.segPathLocked(p), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer func() {
		if err != nil {
			if seg.bytes == 0 {
				_ = os.Remove(dst.Name())
			} else {
				_ = dst.Truncate(seg.bytes)
			}
		}
		dst.Close()
	}()
	if err := dst.Truncate(seg.bytes); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	rr := newRowReader(src, t.schema.Len())
	defer rr.release()
	rows := part.rows - seg.Rows
	var (
		scratch []byte
		row     sqltypes.Row
		read    int64
		at      = seg.bytes
	)
	next := func() (_ sqltypes.Row, err error) {
		if row, err = rr.next(row); err == io.EOF {
			err = corruptf("storage: table %q partition %d row log decoded %d rows after row %d but accounting says %d",
				t.name, p, read, seg.Rows, rows)
		}
		read++
		return row, err
	}
	for left := rows; left > 0; left -= ChunkRows {
		if scratch, err = appendSegChunk(scratch[:0], t.schema, int(min(left, ChunkRows)), next); err != nil {
			return nil, err
		}
		if _, err := dst.WriteAt(scratch, at); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		at += int64(len(scratch))
	}
	if _, err := rr.next(row); err != io.EOF {
		if err == nil {
			err = corruptf("storage: table %q partition %d row log holds more rows than accounting's %d",
				t.name, p, part.rows)
		}
		return nil, err
	}
	return &segCover{Mark{Rows: part.rows, Offset: part.size}, at}, nil
}

// blockRead is a segment scan's request: the schema ordinals of its
// blocks and their consumer. whole refuses a segment that does not
// cover every row of the partition.
type blockRead struct {
	cols  []int
	fn    func(*Block) error
	whole bool
}

func (br *blockRead) check(t *Table) error {
	for i, c := range br.cols {
		if c < 0 || c >= t.schema.Len() || slices.Contains(br.cols[:i], c) {
			return fmt.Errorf("storage: block scan of table %q: column ordinals %v must be distinct and in 0..%d", t.name, br.cols, t.schema.Len()-1)
		}
	}
	return nil
}

// readSegLocked delivers the blocks of partition p's segment to br.fn,
// adding its rows and bytes to st, and returns the blocks delivered.
// A segment file gone or cut short under a live cover delivers nothing
// and reports ErrSegmentStale, as a partition without a cover does.
func (t *Table) readSegLocked(ctx context.Context, p int, br *blockRead, st *ScanStats) (blocks int64, err error) {
	seg := t.parts[p].seg
	f, size, err := openSeg(t.segPathLocked(p))
	if err == nil && size < seg.bytes {
		f.Close()
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, fmt.Errorf("storage: table %q partition %d: %w (%v)", t.name, p, ErrSegmentStale, err)
	}
	defer f.Close()
	done := ctx.Done()
	sr := newSegReader(f, seg.bytes, t.schema, br.cols)
	defer sr.release()
	for {
		blk, err := sr.next()
		st.Bytes = sr.bytes
		if err == io.EOF {
			if st.Rows != seg.Rows {
				return blocks, corruptf("storage: table %q partition %d segment holds %d rows but accounting says %d",
					t.name, p, st.Rows, seg.Rows)
			}
			return blocks, nil
		}
		if err != nil {
			return blocks, err
		}
		if done != nil {
			select {
			case <-done:
				return blocks, ctx.Err()
			default:
			}
		}
		st.Rows += int64(blk.Rows)
		blocks++
		if err := br.fn(blk); err != nil {
			return blocks, err
		}
	}
}

// ScanPartitionBlocks iterates partition p column-wise, delivering
// blocks of the requested schema ordinals to fn. The Block (and its
// slices) is reused between calls; fn must copy anything it retains.
// A partition needs a segment covering all its current rows — otherwise,
// and always for an in-memory table, which has none, ErrSegmentStale is
// returned before any block is delivered, so callers can fall back to
// the row path without partial accumulation. Every row of the partition
// appears in exactly one delivered block (invalid lanes included), so
// block-path row accounting matches the row path's. cols must be
// distinct ordinals of the schema.
func (t *Table) ScanPartitionBlocks(ctx context.Context, p int, cols []int, fn func(*Block) error) (ScanStats, error) {
	return t.scanPartition(ctx, p, Mark{}, &blockRead{cols: cols, fn: fn, whole: true}, nil, nil)
}

// SegmentInfo describes one partition's segment state; sys.segments
// serves it.
type SegmentInfo struct {
	Partition int
	Rows      int64 // rows covered; -1 while unverified after OpenTable
	Bytes     int64 // on-disk segment size (0 when absent)
}

// Segments reports per-partition segment state. In-memory tables report
// none.
func (t *Table) Segments() []SegmentInfo {
	if t.dir == "" {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]SegmentInfo, len(t.parts))
	for p := range t.parts {
		out[p] = SegmentInfo{Partition: p, Rows: t.parts[p].seg.Rows}
		if stt, err := os.Stat(t.segPathLocked(p)); err == nil {
			out[p].Bytes = stt.Size()
		}
	}
	return out
}
