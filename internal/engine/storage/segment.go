package storage

import (
	"bufio"
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

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

// Columnar segments are a cache derived from the row log: an on-disk
// partition may carry a sibling `.seg` file holding the same rows
// re-encoded column-wise, so the batch execution path decodes only the
// columns a query references and hands them to vector kernels as
// []float64 slices. The row log is the single source of truth and the
// only thing a write touches: Insert and BulkLoader leave segRows
// behind rows, and EnsureSegments — called by the executor ahead of a
// block scan — is the one place a segment file is created, re-deriving
// each stale partition's segment whole from its row log (no tail
// catch-up: a rebuild costs a bounded multiple of the scan that
// triggers it, and an engine that never block-scans never pays it).
//
// File layout: a sequence of chunks, each
//
//	magic "SEG1" | u32 rows (1..segChunkRows) | u32 ncols | u32 bodyLen
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
const (
	segMagic     = "SEG1"
	segChunkRows = 4096
)

// ErrSegmentStale reports that a partition's segment file does not
// cover its current rows; callers fall back to the row log (and may
// EnsureSegments to rebuild).
var ErrSegmentStale = errors.New("storage: segment stale")

// segUnverified is the segRows of a partition OpenTable just attached:
// the first EnsureSegments adopts or replaces the file a previous
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

// encodeSegChunk appends one chunk (≤ segChunkRows rows) to buf. The
// column blocks are laid out first and filled row by row, so the rows
// are read once, in order, however many columns there are.
func encodeSegChunk(buf []byte, schema *sqltypes.Schema, rows []sqltypes.Row) []byte {
	nrows := len(rows)
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
	for r, row := range rows {
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
	return buf
}

// laneHead is how many float64s of a lane's backing array precede its
// values: a numeric column block's tag, bitmap and min/max (at most
// 1 + segChunkRows/8 + 16 bytes) land there when the block is read in
// one call, so the values that follow them start 8-byte aligned at
// lane[laneHead].
const laneHead = (1 + segChunkRows/8 + 16 + 7) / 8

// allValid is the Valid lane of every NULL-free column: read-only by
// Block's contract, shared by every scan in the process.
var allValid = func() (v [segChunkRows]bool) {
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
	vals  [][]float64 // laneHead + segChunkRows each
	valid [][]bool    // segChunkRows each
}

var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// getBlockBuf leases a buffer with lanes for k columns.
func getBlockBuf(k int) *blockBuf {
	bb := blockBufs.Get().(*blockBuf)
	for len(bb.vals) < k {
		bb.vals = append(bb.vals, make([]float64, laneHead+segChunkRows))
		bb.valid = append(bb.valid, make([]bool, segChunkRows))
	}
	if cap(bb.blk.Cols) < k {
		bb.blk.Cols, bb.blk.Valid = make([][]float64, k), make([][]bool, k)
	}
	bb.blk.Cols, bb.blk.Valid = bb.blk.Cols[:k], bb.blk.Valid[:k]
	return bb
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
	if nrows < 1 || nrows > segChunkRows {
		return nil, corruptf("storage: segment chunk row count %d out of range 1..%d", nrows, segChunkRows)
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
			lane := sr.buf.vals[s][:laneHead+nrows]
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
			blk.Valid[s] = expandBitmap(got[1:1+bmLen], sr.buf.valid[s][:nrows])
		} else {
			// Nothing of this column reaches a kernel; only its tag is
			// read. A requested non-numeric column has no operands: every
			// lane invalid, whatever its (informational) bitmap says.
			if err := sr.read(got, at); err != nil {
				return nil, err
			}
			if s >= 0 {
				blk.Cols[s], blk.Valid[s] = sr.buf.vals[s][:nrows], sr.buf.valid[s][:nrows]
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
var fullBitmap = bytes.Repeat([]byte{0xff}, segChunkRows/8)

// expandBitmap returns the validity lane of a column whose bitmap is
// bm: the shared all-true lane when no bit of the first len(dst) is
// clear, else dst filled a byte at a time.
func expandBitmap(bm []byte, dst []bool) []bool {
	nrows := len(dst)
	whole, rest := nrows/8, byte(1)<<(nrows%8)-1
	if bytes.Equal(bm[:whole], fullBitmap[:whole]) && bm[len(bm)-1]&rest == rest {
		return allValid[:nrows]
	}
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
func countSegRows(path string, schema *sqltypes.Schema) (int64, error) {
	f, size, err := openSeg(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sr := newSegReader(f, size, schema, nil)
	defer sr.release()
	var total int64
	for {
		blk, err := sr.next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		total += int64(blk.Rows)
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

// EnsureSegments makes every partition's segment file cover its current
// rows: a segment behind its row log is rebuilt from it, and a partition
// OpenTable attached adopts the file a previous process left when it is
// structurally intact and holds exactly the partition's row count (a
// segment is only ever written as a snapshot of its own row log). A
// partition that cannot be rebuilt stays stale — block scans fall back
// to its row log — and the first failure is returned once the others
// have been tried. It holds the write lock throughout (the segment is
// replaced atomically via rename), so it must not be called from scan
// callbacks. In-memory tables synthesize blocks and need no segments.
func (t *Table) EnsureSegments() error {
	if t.dir == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for p := range t.parts {
		if t.parts[p].corrupt != nil {
			continue // row scans of this partition fail loudly already
		}
		if t.parts[p].segRows == t.parts[p].rows {
			continue
		}
		if t.parts[p].segRows == segUnverified {
			if n, err := countSegRows(t.segPathLocked(p), t.schema); err == nil && n == t.parts[p].rows {
				t.parts[p].segRows = n
				continue
			}
		}
		if err := t.rebuildSegLocked(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rebuildSegLocked re-derives partition p's segment from its row log,
// the only place a segment file is written. Rows are decoded a chunk at
// a time into one arena that every chunk reuses.
func (t *Table) rebuildSegLocked(p int) error {
	src, err := os.Open(t.parts[p].path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer src.Close()
	tmp := t.segPathLocked(p) + ".tmp"
	dst, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer os.Remove(tmp) // fails harmlessly once the rename below has happened
	defer dst.Close()
	w := bufio.NewWriterSize(dst, 1<<18)
	arity := t.schema.Len()
	rr := newRowReader(src, arity)
	defer rr.release()
	arena := make([]sqltypes.Value, min(segChunkRows, max(t.parts[p].rows, 1))*int64(arity))
	chunk := make([]sqltypes.Row, 0, len(arena)/arity)
	var (
		scratch []byte
		total   int64
		row     sqltypes.Row
	)
	for err == nil {
		chunk = chunk[:0]
		for len(chunk) < cap(chunk) {
			at := len(chunk) * arity
			if row, err = rr.next(arena[at : at+arity : at+arity]); err != nil {
				break
			}
			chunk = append(chunk, row)
		}
		if err != nil && err != io.EOF {
			return err
		}
		if len(chunk) == 0 {
			break
		}
		total += int64(len(chunk))
		scratch = encodeSegChunk(scratch[:0], t.schema, chunk)
		if _, werr := w.Write(scratch); werr != nil {
			return fmt.Errorf("storage: %w", werr)
		}
	}
	if total != t.parts[p].rows {
		return corruptf("storage: table %q partition %d row log decoded %d rows but accounting says %d",
			t.name, p, total, t.parts[p].rows)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := dst.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, t.segPathLocked(p)); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	t.parts[p].segRows = total
	return nil
}

// ScanPartitionBlocks iterates partition p column-wise, delivering
// blocks of the requested schema ordinals to fn. The Block (and its
// slices) is reused between calls; fn must copy anything it retains.
// On-disk partitions require a segment covering the partition's current
// rows — otherwise ErrSegmentStale is returned before any block is
// delivered, so callers can fall back to the row path without partial
// accumulation. In-memory partitions synthesize blocks from resident
// rows. Every row of the partition appears in exactly one delivered
// block (invalid lanes included), so block-path row accounting matches
// the row path's. cols must be distinct ordinals of the schema.
func (t *Table) ScanPartitionBlocks(ctx context.Context, p int, cols []int, fn func(*Block) error) (ScanStats, error) {
	var st ScanStats
	var blocks int64
	defer func() {
		obs.RowsScanned.Add(st.Rows)
		obs.BytesRead.Add(st.Bytes)
		obs.ColumnarBlocksScanned.Add(blocks)
	}()
	if p < 0 || p >= len(t.parts) {
		return st, fmt.Errorf("storage: partition %d out of range 0..%d", p, len(t.parts)-1)
	}
	for i, c := range cols {
		if c < 0 || c >= t.schema.Len() || slices.Contains(cols[:i], c) {
			return st, fmt.Errorf("storage: block scan of table %q: column ordinals %v must be distinct and in 0..%d", t.name, cols, t.schema.Len()-1)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c := t.parts[p].corrupt; c != nil {
		return st, fmt.Errorf("storage: refusing to scan corrupt partition %d of table %q: %w", p, t.name, c)
	}
	st.End = Mark{Rows: t.parts[p].rows, Offset: t.parts[p].size}
	flt := t.fault
	if flt.matches(p) && flt.ScanOpen {
		return st, flt.err()
	}
	deliver := func(b *Block) error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		st.Rows += int64(b.Rows)
		blocks++
		t.scanned.Add(int64(b.Rows))
		return fn(b)
	}
	if t.dir == "" {
		return st, t.scanMemBlocksLocked(p, cols, deliver)
	}
	if t.parts[p].segRows != t.parts[p].rows {
		return st, fmt.Errorf("storage: table %q partition %d: %w", t.name, p, ErrSegmentStale)
	}
	if t.parts[p].rows == 0 {
		// Never-written partitions have no segment file; an empty scan
		// is still a successful block scan, not a stale fallback.
		return st, nil
	}
	f, size, err := openSeg(t.segPathLocked(p))
	if err != nil {
		return st, fmt.Errorf("storage: table %q partition %d: %w", t.name, p, ErrSegmentStale)
	}
	defer f.Close()
	sr := newSegReader(f, size, t.schema, cols)
	defer sr.release()
	var total int64
	for {
		blk, err := sr.next()
		st.Bytes = sr.bytes
		if err == io.EOF {
			if total != t.parts[p].segRows {
				return st, corruptf("storage: table %q partition %d segment holds %d rows but accounting says %d",
					t.name, p, total, t.parts[p].segRows)
			}
			return st, nil
		}
		if err != nil {
			return st, err
		}
		total += int64(blk.Rows)
		if err := deliver(blk); err != nil {
			return st, err
		}
	}
}

// scanMemBlocksLocked synthesizes blocks from an in-memory partition.
func (t *Table) scanMemBlocksLocked(p int, cols []int, deliver func(*Block) error) error {
	mem := t.parts[p].mem
	bb := getBlockBuf(len(cols))
	defer blockBufs.Put(bb)
	blk := &bb.blk
	for off := 0; off < len(mem); off += segChunkRows {
		n := min(len(mem)-off, segChunkRows)
		blk.Rows = n
		for s, c := range cols {
			vals, valid := bb.vals[s][:n], bb.valid[s][:n]
			numeric := NumericColumn(t.schema.Columns[c])
			for r := 0; r < n; r++ {
				vals[r], valid[r] = 0, false
				if !numeric {
					continue
				}
				if v := mem[off+r][c]; !v.IsNull() {
					if f, ok := v.Float(); ok {
						vals[r], valid[r] = f, true
					}
				}
			}
			blk.Cols[s], blk.Valid[s] = vals, valid
		}
		if err := deliver(blk); err != nil {
			return err
		}
	}
	return nil
}

// SegmentInfo describes one partition's segment state; sys.segments
// serves it.
type SegmentInfo struct {
	Partition int
	Rows      int64 // rows covered; -1 while unverified after OpenTable
	Bytes     int64 // on-disk segment size (0 when absent)
}

// Segments reports per-partition segment state. In-memory tables report
// no segments (blocks are synthesized).
func (t *Table) Segments() []SegmentInfo {
	if t.dir == "" {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]SegmentInfo, len(t.parts))
	for p := range t.parts {
		out[p] = SegmentInfo{Partition: p, Rows: t.parts[p].segRows}
		if stt, err := os.Stat(t.segPathLocked(p)); err == nil {
			out[p].Bytes = stt.Size()
		}
	}
	return out
}
