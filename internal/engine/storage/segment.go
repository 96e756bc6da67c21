package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/engine/sqltypes"
)

// An on-disk partition stores each row once: its first rows as sealed
// column chunks in its `.seg` file, the rest — the tail, under
// ChunkRows rows after every commit — in its `.dat` row log. A commit
// that leaves ChunkRows or more rows in the log seals them
// (sealLocked); EnsureSegments seals every tail. A scan reads the
// chunks as blocks or rows, then the tail as rows: float or boxed.
//
// Chunk layout (SEG3):
//
//	header:    magic "SEG3" | u32 rows (1..ChunkRows) | u32 ncols |
//	           u32 0 | u64 bodyLen (directory, blocks and payloads)
//	directory: per column one u64: its lane tag (laneTag) in the low
//	           byte, a VARCHAR column's payload bytes above it
//	blocks:    per column in schema order, the bitmap (bit set = value
//	           present), zero-padded to 8 bytes, then rows × u64 lanes,
//	           little-endian: a DOUBLE's bits, a BIGINT's two's
//	           complement, a VARCHAR's end offset in its payload (a NULL
//	           lane holds 0, or a VARCHAR's previous end)
//	payloads:  per VARCHAR column in schema order, its values' bytes
//	           back to back, zero-padded to 8 bytes
//
// so every block starts 8-byte aligned, at an offset the schema and the
// row count fix. A block scan reads a chunk's header and directory in
// one positional read, then each run of adjacent requested numeric
// columns in one more, straight into the float64 buffer its lanes are
// views of, converting a BIGINT lane there as Value.Float does; a row
// scan reads the whole chunk and decodes it by the row codec's rules.
// OpenTable discards earlier layouts (SEG1, SEG2: caches of a row log
// that held every row, as a log without a tail header still does).
const segMagic = "SEG3"

// ChunkRows is the row count of a sealed chunk, the unit block scans
// decode. The executor sizes its scan fan-out in it too: one worker per
// chunk of rows to read.
const ChunkRows = 2048

const chunkHead = 24 // a chunk header's length

// Lane tags, by declared type. A column of another type holds only
// NULLs (the row codec stores nothing else): its lanes stay zero.
const (
	laneOther   = 0
	laneDouble  = 1
	laneBigInt  = 2
	laneVarChar = 3
)

func laneTag(c sqltypes.Column) uint64 {
	switch c.Type {
	case sqltypes.TypeDouble:
		return laneDouble
	case sqltypes.TypeBigInt:
		return laneBigInt
	case sqltypes.TypeVarChar:
		return laneVarChar
	}
	return laneOther
}

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
// slots. A chunk column without NULLs is delivered with the shared
// all-true lane, and is skipped unread.
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

// from cuts the block's first k rows.
func (b *Block) from(k int) {
	b.Rows -= k
	for s, v := range b.Valid {
		b.Cols[s] = b.Cols[s][k:]
		if &v[0] == &allValid[0] {
			b.Valid[s] = allValid[:b.Rows]
		} else {
			b.Valid[s] = v[k:]
		}
	}
}

// NumericColumn reports whether a schema column carries values in
// blocks, the rule every unboxed source shares. It is by declared type,
// not by stored value: a VARCHAR that happens to parse as a number must
// not sneak into numeric kernels on one path and not the other.
func NumericColumn(c sqltypes.Column) bool {
	return c.Type == sqltypes.TypeDouble || c.Type == sqltypes.TypeBigInt
}

// segPathLocked is the sealed-chunk file of partition p.
func (t *Table) segPathLocked(p int) string {
	return strings.TrimSuffix(t.parts[p].path, ".dat") + ".seg"
}

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// chunkShape places the blocks of a chunk of rows rows.
type chunkShape struct{ ncols, rows, bmLen int }

func newChunkShape(ncols, rows int) chunkShape {
	return chunkShape{ncols: ncols, rows: rows, bmLen: pad8((rows + 7) / 8)}
}

// blockAt is the offset of column c's block from the chunk's start;
// blockAt(ncols) is where the payloads start.
func (sh chunkShape) blockAt(c int) int {
	return chunkHead + 8*sh.ncols + c*(sh.bmLen+8*sh.rows)
}

// chunkEncoder lays out chunks of one schema, reusing its buffers.
type chunkEncoder struct {
	schema *sqltypes.Schema
	tags   []uint64 // per column, its lane tag
	pay    [][]byte // per VARCHAR column, the chunk's payload so far
}

func newChunkEncoder(schema *sqltypes.Schema) *chunkEncoder {
	e := &chunkEncoder{schema: schema, tags: make([]uint64, schema.Len()), pay: make([][]byte, schema.Len())}
	for c, col := range schema.Columns {
		e.tags[c] = laneTag(col)
	}
	return e
}

// append appends a chunk of the next nrows (1..ChunkRows) rows to buf,
// filling its blocks row by row and gathering VARCHAR bytes beside
// them, so no row is kept. A value not of its column's type fails
// ErrCorrupt: a chunk holds each column's type exactly.
func (e *chunkEncoder) append(buf []byte, nrows int, next func() (sqltypes.Row, error)) ([]byte, error) {
	schema, tags, pay := e.schema, e.tags, e.pay
	ncols := schema.Len()
	sh := newChunkShape(ncols, nrows)
	for c := range pay {
		pay[c] = pay[c][:0]
	}
	start := len(buf)
	buf = append(buf, make([]byte, sh.blockAt(ncols))...) // NULL lanes stay zero
	chunk := buf[start:]
	for r := range nrows {
		row, err := next()
		if err != nil {
			return buf, err
		}
		bit := byte(1) << (r % 8)
		for c, v := range row {
			at := sh.blockAt(c)
			lane := chunk[at+sh.bmLen+8*r:]
			var u uint64
			switch typ := v.Type(); {
			case typ == sqltypes.TypeNull:
				if tags[c] == laneVarChar {
					binary.LittleEndian.PutUint64(lane, uint64(len(pay[c])))
				}
				continue
			case typ == sqltypes.TypeDouble && tags[c] == laneDouble:
				f, _ := v.Float()
				u = math.Float64bits(f)
			case typ == sqltypes.TypeBigInt && tags[c] == laneBigInt:
				u = uint64(v.Int())
			case typ == sqltypes.TypeVarChar && tags[c] == laneVarChar:
				pay[c] = append(pay[c], v.Str()...)
				u = uint64(len(pay[c]))
			default:
				return buf, corruptf("storage: a %v value in column %q, which stores %v", typ, schema.Columns[c].Name, schema.Columns[c].Type)
			}
			chunk[at+r/8] |= bit
			binary.LittleEndian.PutUint64(lane, u)
		}
	}
	for c, p := range pay {
		binary.LittleEndian.PutUint64(chunk[chunkHead+8*c:], tags[c]|uint64(len(p))<<8)
	}
	for _, p := range pay {
		buf = append(buf, p...)
		buf = append(buf, zero8[:pad8(len(p))-len(p)]...)
	}
	chunk = buf[start:]
	copy(chunk, segMagic)
	binary.LittleEndian.PutUint32(chunk[4:], uint32(nrows))
	binary.LittleEndian.PutUint32(chunk[8:], uint32(ncols))
	binary.LittleEndian.PutUint64(chunk[16:], uint64(len(chunk)-chunkHead))
	return buf, nil
}

var zero8 [8]byte

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

// blockBuf is the backing of one scan's Block — the chunk header and
// directory, the requested numeric blocks or a whole chunk, a validity
// lane per requested column — pooled so a warm scan allocates no column
// memory.
type blockBuf struct {
	blk   Block
	head  []byte
	run   []float64 // the lanes are views of it
	raw   []byte    // a whole chunk, for a row scan
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

// nativeLittleEndian: chunk lanes are little-endian on disk, which is
// how this host lays a float64 out in memory.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views a float buffer as the bytes a chunk read fills. A
// host whose float64 layout is not the file's swaps the values in place
// afterwards (segReader.block).
func floatBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// segRun is n adjacent requested numeric columns from schema ordinal
// first on, read in one call.
type segRun struct{ first, n int }

// segReader reads consecutive chunks: head reads and checks the next
// header and directory, then skip steps over the chunk, block reads its
// requested numeric columns, or chunk all of it for a row decode.
type segReader struct {
	r      io.ReaderAt
	size   int64
	off    int64
	schema *sqltypes.Schema
	tags   []uint64 // per column, its lane tag
	runs   []segRun // the requested numeric columns, run by run
	nreq   int      // requested numeric columns
	place  []int    // per slot, its block's index in the run buffer; -1 when not read
	bigint []bool   // per index in the run buffer, a BIGINT lane to convert
	buf    *blockBuf
	bytes  int64 // bytes read so far
	// The chunk at off, once head has read it.
	sh    chunkShape
	body  int64
	cells chunkCells
}

// newSegReader reads the size-byte file r, surfacing the schema
// ordinals want in its blocks.
func newSegReader(r io.ReaderAt, size int64, schema *sqltypes.Schema, want []int) *segReader {
	ncols := schema.Len()
	sr := &segReader{r: r, size: size, schema: schema, tags: make([]uint64, ncols),
		place: make([]int, len(want)), buf: getBlockBuf(len(want))}
	sr.cells = chunkCells{tags: sr.tags, at: make([]int, ncols), pay: make([]int, ncols), payLen: make([]int, ncols)}
	read := make([]bool, ncols) // by schema ordinal
	for c, col := range schema.Columns {
		sr.tags[c] = laneTag(col)
	}
	for _, c := range want {
		read[c] = NumericColumn(schema.Columns[c])
	}
	index := make([]int, ncols)
	for c, ok := range read {
		if !ok {
			continue
		}
		index[c] = sr.nreq
		sr.nreq++
		sr.bigint = append(sr.bigint, sr.tags[c] == laneBigInt)
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
// against the file's size, so a short read means the file shrank
// underneath the scan.
func (sr *segReader) read(dst []byte, at int64) error {
	n, err := sr.r.ReadAt(dst, at)
	sr.bytes += int64(n)
	if n < len(dst) {
		return corruptf("storage: segment read of %d bytes at %d returned %d: %w", len(dst), at, n, err)
	}
	return nil
}

// head reads and checks the header and directory at the reader's
// offset, returning the chunk's rows: io.EOF at the end of the file,
// every other failure ErrCorrupt.
func (sr *segReader) head() (int, error) {
	if sr.off == sr.size {
		return 0, io.EOF
	}
	ncols := sr.schema.Len()
	head := grow(&sr.buf.head, chunkHead+8*ncols)
	if sr.size-sr.off < int64(len(head)) {
		return 0, corruptf("storage: truncated segment chunk header")
	}
	if err := sr.read(head, sr.off); err != nil {
		return 0, err
	}
	if string(head[:4]) != segMagic {
		return 0, corruptf("storage: bad segment chunk magic %q", string(head[:4]))
	}
	nrows := int(binary.LittleEndian.Uint32(head[4:8]))
	if nrows < 1 || nrows > ChunkRows {
		return 0, corruptf("storage: segment chunk row count %d out of range 1..%d", nrows, ChunkRows)
	}
	if n := int(binary.LittleEndian.Uint32(head[8:12])); n != ncols {
		return 0, corruptf("storage: segment chunk has %d columns, schema has %d", n, ncols)
	}
	if z := binary.LittleEndian.Uint32(head[12:16]); z != 0 {
		return 0, corruptf("storage: segment chunk header reserves %#x, want 0", z)
	}
	sh := newChunkShape(ncols, nrows)
	end := int64(sh.blockAt(ncols))
	for c, tag := range sr.tags {
		e := binary.LittleEndian.Uint64(head[chunkHead+8*c:])
		n := e >> 8
		if e&0xff != tag || n > 0 && tag != laneVarChar || n > uint64(sr.size) {
			return 0, corruptf("storage: segment column %d has directory entry %#x, its type says tag %d", c, e, tag)
		}
		sr.cells.pay[c], sr.cells.payLen[c] = int(end), int(n)
		end += int64(pad8(int(n)))
	}
	body := end - chunkHead
	if bodyLen := binary.LittleEndian.Uint64(head[16:24]); bodyLen != uint64(body) {
		return 0, corruptf("storage: segment chunk body is %d bytes, header says %d", body, bodyLen)
	}
	if sr.size-sr.off-chunkHead < body {
		return 0, corruptf("storage: truncated segment chunk body")
	}
	sr.sh, sr.body = sh, body
	return nrows, nil
}

// skip steps over the chunk head read.
func (sr *segReader) skip() { sr.off += chunkHead + sr.body }

// block reads the requested numeric columns of the chunk head read into
// the reader's Block and steps over the chunk.
func (sr *segReader) block() (*Block, error) {
	nrows, bmLen := sr.sh.rows, sr.sh.bmLen
	// Each numeric block read is bmLen/8 floats of bitmap, then lanes.
	stride := bmLen/8 + nrows
	run := grow(&sr.buf.run, sr.nreq*stride)
	for _, rn := range sr.runs {
		dst := run[:rn.n*stride]
		run = run[len(dst):]
		if err := sr.read(floatBytes(dst), sr.off+int64(sr.sh.blockAt(rn.first))); err != nil {
			return nil, err
		}
		if !nativeLittleEndian {
			for k := range rn.n {
				lanes := dst[k*stride+bmLen/8 : (k+1)*stride]
				for r, v := range lanes {
					lanes[r] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
				}
			}
		}
	}
	run = sr.buf.run
	for k, big := range sr.bigint {
		if big {
			lanes := run[k*stride+bmLen/8 : (k+1)*stride]
			for r, v := range lanes {
				lanes[r] = float64(int64(math.Float64bits(v)))
			}
		}
	}
	blk := &sr.buf.blk
	blk.Rows = nrows
	for s, k := range sr.place {
		if k < 0 {
			// A requested non-numeric column has no operands: every lane
			// invalid, whatever its bitmap says.
			blk.Cols[s], blk.Valid[s] = noValues[:nrows], noneValid[:nrows]
			continue
		}
		lane := run[k*stride : (k+1)*stride]
		blk.Cols[s] = lane[bmLen/8:]
		blk.Valid[s] = sr.buf.validity(s, floatBytes(lane)[:(nrows+7)/8], nrows)
	}
	sr.skip()
	return blk, nil
}

// chunk reads all of the chunk head read and steps over it.
func (sr *segReader) chunk() (*chunkCells, error) {
	head := sr.buf.head[:chunkHead+8*sr.sh.ncols]
	raw := grow(&sr.buf.raw, chunkHead+int(sr.body))
	copy(raw, head)
	if err := sr.read(raw[len(head):], sr.off+int64(len(head))); err != nil {
		return nil, err
	}
	sr.cells.raw, sr.cells.sh = raw, sr.sh
	for c := range sr.cells.at {
		sr.cells.at[c] = sr.sh.blockAt(c)
	}
	sr.skip()
	return &sr.cells, nil
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

// chunkCells is one whole chunk in memory, decoded a cell at a time.
type chunkCells struct {
	raw    []byte
	sh     chunkShape
	tags   []uint64
	at     []int // per column, its block's offset in raw
	pay    []int // per column, its payload's offset in raw
	payLen []int // and length
}

func (cc *chunkCells) lane(c, r int) uint64 {
	return binary.LittleEndian.Uint64(cc.raw[cc.at[c]+cc.sh.bmLen+8*r:])
}

// row decodes row r into dst (reused when it has capacity) as the row
// codec would.
func (cc *chunkCells) row(r int, dst sqltypes.Row) (sqltypes.Row, error) {
	if cap(dst) < cc.sh.ncols {
		dst = make(sqltypes.Row, cc.sh.ncols)
	}
	dst = dst[:cc.sh.ncols]
	byteAt, bit := r/8, byte(1)<<(r%8)
	for c := range dst {
		if cc.raw[cc.at[c]+byteAt]&bit == 0 {
			dst[c] = sqltypes.Null
			continue
		}
		u := cc.lane(c, r)
		switch cc.tags[c] {
		case laneDouble:
			dst[c] = sqltypes.NewDouble(math.Float64frombits(u))
		case laneBigInt:
			dst[c] = sqltypes.NewBigInt(int64(u))
		case laneVarChar:
			var from uint64
			if r > 0 {
				from = cc.lane(c, r-1)
			}
			if from > u || u > uint64(cc.payLen[c]) {
				return nil, corruptf("storage: segment column %d row %d spans bytes %d..%d of a %d-byte payload", c, r, from, u, cc.payLen[c])
			}
			dst[c] = sqltypes.NewVarChar(string(cc.raw[cc.pay[c]+int(from) : cc.pay[c]+int(u)]))
		default:
			return nil, corruptf("storage: segment column %d row %d is present in a column that stores no values", c, r)
		}
	}
	return dst, nil
}

// floats is the float decode of row r by nextFloats' rule: false when a
// requested cell is NULL, VARCHAR or a BIGINT beyond ±2⁵³.
func (cc *chunkCells) floats(r int, fd *floatDecode) bool {
	byteAt, bit := r/8, byte(1)<<(r%8)
	for j, c := range fd.cols {
		if cc.raw[cc.at[c]+byteAt]&bit == 0 {
			return false
		}
		u := cc.lane(c, r)
		switch cc.tags[c] {
		case laneDouble:
			fd.x[j] = math.Float64frombits(u)
		case laneBigInt:
			if !exactFloat(int64(u)) {
				return false
			}
			fd.x[j] = float64(int64(u))
		default:
			return false
		}
	}
	return true
}

// openSeg opens a `.seg` file for positional reads.
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

// walkChunks steps sr over the chunks of the first rows rows, handing
// each that ends after row from to each (nil: none) with its count of
// rows before from. Chunks that fall short of rows or straddle it fail
// ErrCorrupt.
func walkChunks(sr *segReader, rows, from int64, each func(skip int) error) error {
	for at := int64(0); at < rows; {
		n, err := sr.head()
		if err == io.EOF {
			err = corruptf("storage: chunks hold %d rows, not %d", at, rows)
		}
		if err != nil {
			return err
		}
		if each == nil || at+int64(n) <= from {
			sr.skip()
		} else if err := each(int(max(0, from-at))); err != nil {
			return err
		}
		if at += int64(n); at > rows {
			return corruptf("storage: a chunk spans row %d, where the row log starts", rows)
		}
	}
	return nil
}

// A row log after its partition's first seal starts with a tail header:
// tailMagic, four zero bytes and the u64 number of its first row. A log
// without one starts at row 0; its first byte is a value tag, never 'T'.
const (
	tailMagic = "TAIL"
	tailHead  = 16
)

func appendTailHead(buf []byte, first int64) []byte {
	buf = append(buf, tailMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	return binary.LittleEndian.AppendUint64(buf, uint64(first))
}

// parseTailHead reads a row log's first bytes (up to tailHead): the row
// it starts at and its header's length, both 0 without a header.
func parseTailHead(b []byte) (first int64, n int, err error) {
	if len(b) == 0 || b[0] != tailMagic[0] {
		return 0, 0, nil
	}
	if len(b) < tailHead || string(b[:4]) != tailMagic || binary.LittleEndian.Uint32(b[4:8]) != 0 {
		return 0, 0, corruptf("storage: bad row log header %q", b)
	}
	first = int64(binary.LittleEndian.Uint64(b[8:16]))
	if first <= 0 {
		return 0, 0, corruptf("storage: row log header names first row %d", first)
	}
	return first, tailHead, nil
}

// EnsureSegments seals every partition's tail, a short last chunk
// included. A partition that fails to seal keeps its rows in the row
// log; the first failure is returned once all were tried.
func (t *Table) EnsureSegments() error {
	if t.dir == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for p := range t.parts {
		if err := t.sealLocked(p, true); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sealLocked moves partition p's tail into chunks: all of it, or only
// its whole chunks. It appends the chunks to the `.seg` after its
// sealed bytes (cutting what an earlier failure left there), then
// renames over the row log a file of the tail header and the rows left.
// Nothing is published before the rename, so a failure or crash at any
// step leaves every row exactly once: in the old log, any new chunks
// past the sealed bytes, unread and cut by OpenTable. A corrupt
// partition is not sealed: its scans fail already.
func (t *Table) sealLocked(p int, all bool) error {
	part := &t.parts[p]
	n := part.rows - part.sealed
	if !all {
		n -= n % ChunkRows
	}
	if n == 0 || part.corrupt != nil {
		return nil
	}
	tr, err := t.openTailLocked(p, part.sealed)
	if err != nil {
		return err
	}
	defer tr.close()
	if fi, err := tr.f.Stat(); err != nil || fi.Size() != part.size {
		return corruptf("storage: table %q partition %d row log is not the %d bytes its rows take (%v)", t.name, p, part.size, err)
	}
	dst, err := os.OpenFile(t.segPathLocked(p), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer dst.Close()
	if err := dst.Truncate(part.segSize); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var (
		row     sqltypes.Row
		scratch []byte
		at      = part.segSize
		flt     = t.fault
		enc     = newChunkEncoder(t.schema)
	)
	next := func() (sqltypes.Row, error) {
		row, err = tr.next(row)
		return row, err
	}
	for left := n; left > 0; left -= ChunkRows {
		if scratch, err = enc.append(scratch[:0], int(min(left, ChunkRows)), next); err != nil {
			return err
		}
		chunk := scratch
		if flt.matches(p) && flt.SealMidChunk {
			chunk = chunk[:len(chunk)/2]
		}
		if _, err := dst.WriteAt(chunk, at); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		if len(chunk) < len(scratch) {
			return flt.err()
		}
		at += int64(len(chunk))
	}
	if flt.matches(p) && flt.SealBeforeTail {
		return flt.err()
	}
	// The rows left are the log's bytes after the ones just sealed.
	kept := tr.bytes()
	img := appendTailHead(make([]byte, 0, tailHead+part.size-kept), part.sealed+n)
	img = img[:tailHead+part.size-kept]
	if _, err := tr.f.ReadAt(img[tailHead:], kept); err != nil && len(img) > tailHead {
		return corruptf("storage: table %q partition %d row log: %w", t.name, p, err)
	}
	tmp := part.path + ".tmp"
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, part.path); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	part.sealed += n
	part.segSize = at
	part.size = int64(len(img))
	return nil
}

// scanChunksLocked is walkChunks over partition p's chunks, checking
// ctx between them and adding the bytes read to st.
func (t *Table) scanChunksLocked(ctx context.Context, p int, from int64, cols []int, st *ScanStats, each func(sr *segReader, skip int) error) error {
	part := &t.parts[p]
	f, err := os.Open(t.segPathLocked(p))
	if err != nil {
		return corruptf("storage: table %q partition %d: %w", t.name, p, err)
	}
	defer f.Close()
	sr := newSegReader(f, part.segSize, t.schema, cols)
	defer sr.release()
	defer func() { st.Bytes += sr.bytes }()
	done := ctx.Done()
	return walkChunks(sr, part.sealed, from, func(skip int) error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		return each(sr, skip)
	})
}

// ScanPartitionBlocks iterates partition p column-wise, delivering
// blocks of the requested schema ordinals to fn: one per sealed chunk,
// then the rows after them (a tail, or an in-memory partition's rows)
// gathered boxed into blocks of up to ChunkRows, each lane as
// Value.Float gives it — what sealing them would store. The Block and
// its slices are reused between calls; fn must copy what it retains.
// Every row appears in exactly one block (invalid lanes included), so
// row accounting matches the row path's. cols must be distinct
// ordinals of the schema.
func (t *Table) ScanPartitionBlocks(ctx context.Context, p int, cols []int, fn func(*Block) error) (ScanStats, error) {
	g := rowBlocks{Block{Cols: make([][]float64, len(cols)), Valid: make([][]bool, len(cols))}, t.schema, cols, fn}
	st, err := t.ScanPartitionRead(ctx, p, Read{Cols: cols, Blocks: fn, Rows: g.add})
	if err == nil {
		err = g.flush()
	}
	return st, err
}

// rowBlocks gathers boxed rows into a block for fn.
type rowBlocks struct {
	Block
	schema *sqltypes.Schema
	cols   []int
	fn     func(*Block) error
}

func (g *rowBlocks) add(r sqltypes.Row) error {
	for s, c := range g.cols {
		f, ok := r[c].Float()
		if ok = ok && NumericColumn(g.schema.Columns[c]); !ok {
			f = 0
		}
		g.Cols[s], g.Valid[s] = append(g.Cols[s], f), append(g.Valid[s], ok)
	}
	if g.Rows++; g.Rows == ChunkRows {
		return g.flush()
	}
	return nil
}

// flush hands the rows gathered so far to fn as one block.
func (g *rowBlocks) flush() error {
	if g.Rows == 0 {
		return nil
	}
	err := g.fn(&g.Block)
	for s := range g.cols {
		g.Cols[s], g.Valid[s] = g.Cols[s][:0], g.Valid[s][:0]
	}
	g.Rows = 0
	return err
}

// SegmentInfo describes where a partition keeps its rows; sys.segments
// serves it.
type SegmentInfo struct {
	Partition int
	Rows      int64 // rows sealed in chunks
	Bytes     int64 // the bytes of the chunks holding them
	TailRows  int64 // rows in the row log after them
}

// Segments reports every on-disk partition's SegmentInfo.
func (t *Table) Segments() []SegmentInfo {
	if t.dir == "" {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]SegmentInfo, len(t.parts))
	for p, part := range t.parts {
		out[p] = SegmentInfo{Partition: p, Rows: part.sealed, Bytes: part.segSize, TailRows: part.rows - part.sealed}
	}
	return out
}
