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
//	magic "SEG1" | u32 rows (1..segMaxChunkRows) | u32 ncols | u32 bodyLen
//	body: ncols column blocks, in schema order
//
// and each column block is
//
//	tag byte (1 = numeric, 0 = other)
//	valid bitmap, ceil(rows/8) bytes (bit set = numeric value present;
//	for non-numeric columns: value is non-NULL)
//	numeric only: min f64 | max f64 | rows × f64 values (little-endian,
//	invalid lanes zero-filled)
//
// BIGINT values are stored as float64 via the same conversion the
// row-at-a-time n/L/Q scan applies (Value.Float), so block kernels see
// exactly the operands the row path would.
//
// The writer emits segChunkRows-row chunks: a block scan holds a lane
// per requested column at the chunk's height, so the chunk bounds a
// concurrent scan's memory, while halving it again doubles the
// positional reads. Readers accept up to segMaxChunkRows, the chunk
// earlier writers emitted, so their files keep scanning.
const (
	segMagic        = "SEG1"
	segChunkRows    = 2048
	segMaxChunkRows = 4096
)

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
// column's Valid, shared between scans: callers copy anything they
// retain and never write through them. Cols/Valid are indexed parallel
// to the requested column list, not by schema ordinal. Valid reports
// "numeric value present": NULLs and non-numeric columns are false
// (with the corresponding Cols lane zero-filled).
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

// appendSegChunk appends one chunk of nrows (≤ segMaxChunkRows) rows to
// buf, taking them in order from next. The column blocks are laid out
// first and filled row by row, so each row is read once and none is
// kept, however many columns there are.
func appendSegChunk(buf []byte, schema *sqltypes.Schema, nrows int, next func() (sqltypes.Row, error)) ([]byte, error) {
	bmLen := (nrows + 7) / 8
	type colBlock struct {
		at      int // offset of the block's bitmap in the body
		numeric bool
		mn, mx  float64
	}
	cols := make([]colBlock, schema.Len())
	bodyLen := 0
	for c, col := range schema.Columns {
		cols[c] = colBlock{at: bodyLen + 1, numeric: NumericColumn(col), mn: math.Inf(1), mx: math.Inf(-1)}
		bodyLen += 1 + bmLen
		if cols[c].numeric {
			bodyLen += 16 + 8*nrows // min/max, then the values
		}
	}
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nrows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	bodyStart := len(buf)
	buf = append(buf, make([]byte, bodyLen)...) // invalid lanes stay zero
	body := buf[bodyStart:]
	for r := range nrows {
		row, err := next()
		if err != nil {
			return buf, err
		}
		bit := byte(1) << (r % 8)
		for c := range cols {
			cb := &cols[c]
			v := row[c]
			if v.IsNull() {
				continue
			}
			if !cb.numeric {
				body[cb.at+r/8] |= bit
				continue
			}
			if f, ok := v.Float(); ok {
				body[cb.at+r/8] |= bit
				binary.LittleEndian.PutUint64(body[cb.at+bmLen+16+8*r:], math.Float64bits(f))
				if f < cb.mn {
					cb.mn = f
				}
				if f > cb.mx {
					cb.mx = f
				}
			}
		}
	}
	for _, cb := range cols {
		if cb.numeric {
			body[cb.at-1] = 1
			binary.LittleEndian.PutUint64(body[cb.at+bmLen:], math.Float64bits(cb.mn))
			binary.LittleEndian.PutUint64(body[cb.at+bmLen+8:], math.Float64bits(cb.mx))
		}
	}
	return buf, nil
}

// laneHead is how many float64s of a lane's backing array precede its
// values: a numeric column block's tag, bitmap and min/max (at most
// 1 + segMaxChunkRows/8 + 16 bytes) land there when the block is read
// in one call, so the values that follow them start 8-byte aligned at
// lane[laneHead].
const laneHead = (1 + segMaxChunkRows/8 + 16 + 7) / 8

// allValid is the Valid lane of every NULL-free column: read-only by
// Block's contract, shared by every scan in the process.
var allValid = func() (v [segMaxChunkRows]bool) {
	for i := range v {
		v[i] = true
	}
	return v
}()

// blockBuf is the backing of one scan's Block: a float lane and a
// validity lane per requested column, pooled across scans so a scan
// allocates no column memory once the pool is warm.
type blockBuf struct {
	blk   Block
	vals  [][]float64 // laneHead + the tallest chunk read, each
	valid [][]bool    // the tallest chunk read with a clear bit, each
}

var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// getBlockBuf leases a buffer with slots for k columns; their lanes
// grow to the chunks read.
func getBlockBuf(k int) *blockBuf {
	bb := blockBufs.Get().(*blockBuf)
	for len(bb.vals) < k {
		bb.vals, bb.valid = append(bb.vals, nil), append(bb.valid, nil)
	}
	if cap(bb.blk.Cols) < k {
		bb.blk.Cols, bb.blk.Valid = make([][]float64, k), make([][]bool, k)
	}
	bb.blk.Cols, bb.blk.Valid = bb.blk.Cols[:k], bb.blk.Valid[:k]
	return bb
}

// lane returns slot s's float lane, head included, for an n-row chunk:
// lanes are sized to the chunks actually read, not to the format's
// maximum.
func (bb *blockBuf) lane(s, n int) []float64 {
	if len(bb.vals[s]) < laneHead+n {
		bb.vals[s] = make([]float64, laneHead+n)
	}
	return bb.vals[s][:laneHead+n]
}

// validLane returns slot s's validity lane for an n-row chunk,
// allocated only once a chunk of the column needs one of its own.
func (bb *blockBuf) validLane(s, n int) []bool {
	if len(bb.valid[s]) < n {
		bb.valid[s] = make([]bool, n)
	}
	return bb.valid[s][:n]
}

// nativeLittleEndian: segment values are little-endian on disk, which
// is how this host lays a float64 out in memory.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views a float lane as the bytes a segment read fills. A
// host whose float64 layout is not the file's swaps the values in place
// afterwards (segReader.next).
func floatBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// segReader reads consecutive chunks of a segment, surfacing only the
// requested schema ordinals into a pooled Block. It is positional: a
// chunk's layout follows from its header and the schema, so the reader
// fetches the header, one tag byte of every column the scan did not ask
// for, and each requested numeric column's block — straight into the
// column's float lane — and nothing else.
type segReader struct {
	r      io.ReaderAt
	size   int64
	off    int64
	schema *sqltypes.Schema
	slot   []int // schema ordinal -> Block slot, -1 when not requested
	nnum   int64 // numeric columns in the schema
	buf    *blockBuf
	bytes  int64 // bytes read so far
	// scratch receives a chunk header, then single tag bytes (a local
	// would escape through the ReaderAt call).
	scratch [16]byte
}

// newSegReader reads the size-byte segment r. release returns its Block
// to the pool.
func newSegReader(r io.ReaderAt, size int64, schema *sqltypes.Schema, want []int) *segReader {
	sr := &segReader{r: r, size: size, schema: schema, slot: make([]int, schema.Len()), buf: getBlockBuf(len(want))}
	for i, col := range schema.Columns {
		sr.slot[i] = -1
		if NumericColumn(col) {
			sr.nnum++
		}
	}
	for s, c := range want {
		sr.slot[c] = s
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
	if sr.size-sr.off < 16 {
		return nil, corruptf("storage: truncated segment chunk header")
	}
	hdr := sr.scratch[:]
	if err := sr.read(hdr, sr.off); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != segMagic {
		return nil, corruptf("storage: bad segment chunk magic %q", string(hdr[:4]))
	}
	nrows := int(binary.LittleEndian.Uint32(hdr[4:8]))
	ncols := int(binary.LittleEndian.Uint32(hdr[8:12]))
	bodyLen := int64(binary.LittleEndian.Uint32(hdr[12:16]))
	if nrows < 1 || nrows > segMaxChunkRows {
		return nil, corruptf("storage: segment chunk row count %d out of range 1..%d", nrows, segMaxChunkRows)
	}
	if ncols != sr.schema.Len() {
		return nil, corruptf("storage: segment chunk has %d columns, schema has %d", ncols, sr.schema.Len())
	}
	// A column's block is sized by its declared type (its tag must agree,
	// below), so the body's length is known before any of it is read.
	bmLen := (nrows + 7) / 8
	otherLen := int64(1 + bmLen)
	numLen := otherLen + 16 + 8*int64(nrows)
	body := sr.nnum*numLen + (int64(ncols)-sr.nnum)*otherLen
	if bodyLen != body {
		return nil, corruptf("storage: segment chunk body is %d bytes, header says %d", body, bodyLen)
	}
	if sr.size-sr.off-16 < body {
		return nil, corruptf("storage: truncated segment chunk body")
	}
	blk := &sr.buf.blk
	blk.Rows = nrows
	// A numeric block is read so that the bytes ahead of its values end
	// where the lane's values begin.
	head := laneHead*8 - (1 + bmLen + 16)
	at := sr.off + 16
	for c, col := range sr.schema.Columns {
		s := sr.slot[c]
		size, tag := otherLen, byte(0)
		if NumericColumn(col) {
			size, tag = numLen, 1
		}
		got := sr.scratch[:1]
		if s >= 0 && tag == 1 {
			lane := sr.buf.lane(s, nrows)
			got = floatBytes(lane)[head:]
			if err := sr.read(got, at); err != nil {
				return nil, err
			}
			vals := lane[laneHead:]
			if !nativeLittleEndian {
				for r, v := range vals {
					vals[r] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
				}
			}
			blk.Cols[s] = vals
			blk.Valid[s] = sr.buf.validity(s, got[1:1+bmLen], nrows)
		} else {
			// Nothing of this column reaches a kernel; only its tag is
			// read. A requested non-numeric column has no operands: every
			// lane invalid, whatever its (informational) bitmap says.
			if err := sr.read(got, at); err != nil {
				return nil, err
			}
			if s >= 0 {
				blk.Cols[s], blk.Valid[s] = sr.buf.lane(s, nrows)[:nrows], sr.buf.validLane(s, nrows)
				clear(blk.Cols[s])
				clear(blk.Valid[s])
			}
		}
		if got[0] != tag {
			return nil, corruptf("storage: segment column %d has tag %d, its type says %d", c, got[0], tag)
		}
		at += size
	}
	sr.off = at
	return blk, nil
}

// fullBitmap is the bitmap of a full chunk without NULLs.
var fullBitmap = bytes.Repeat([]byte{0xff}, segMaxChunkRows/8)

// validity returns the validity lane of slot s's column in an
// nrows-row chunk whose bitmap is bm: the shared all-true lane when no
// bit of the first nrows is clear, else the slot's own lane filled a
// byte at a time.
func (bb *blockBuf) validity(s int, bm []byte, nrows int) []bool {
	whole, rest := nrows/8, byte(1)<<(nrows%8)-1
	if bytes.Equal(bm[:whole], fullBitmap[:whole]) && bm[len(bm)-1]&rest == rest {
		return allValid[:nrows]
	}
	dst := bb.validLane(s, nrows)
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
func (t *Table) ExtendSegments() error { return t.deriveSegments(segChunkRows) }

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
	for left := rows; left > 0; left -= segChunkRows {
		if scratch, err = appendSegChunk(scratch[:0], t.schema, int(min(left, segChunkRows)), next); err != nil {
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
