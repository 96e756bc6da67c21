package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

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
// callbacks. Slices are reused between callbacks; callers must copy
// anything they retain. Cols/Valid are indexed parallel to the
// requested column list, not by schema ordinal. Valid reports "numeric
// value present": NULLs and non-numeric columns are false (with the
// corresponding Cols lane zero-filled).
type Block struct {
	Rows  int
	Cols  [][]float64
	Valid [][]bool
}

// colNumeric reports whether a schema column carries values in segment
// blocks. The rule is by declared type, not by stored value: a VARCHAR
// that happens to parse as a number must not sneak into numeric kernels
// on one path and not the other.
func colNumeric(c sqltypes.Column) bool {
	return c.Type == sqltypes.TypeDouble || c.Type == sqltypes.TypeBigInt
}

// NumericColumn is the exported form of the block-path numeric rule;
// the executor uses it to gate block kernels on schema types so both
// paths agree on which lanes carry operands.
func NumericColumn(c sqltypes.Column) bool { return colNumeric(c) }

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
		cols[c] = colBlock{at: bodyLen + 1, numeric: colNumeric(col), mn: math.Inf(1), mx: math.Inf(-1)}
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

// segReader decodes consecutive chunks of a segment image, surfacing
// only the requested schema ordinals into a reused Block. It works
// over the whole segment in memory: partitions are small enough to
// slurp, and decoding straight out of the image avoids the buffer
// copies and per-read syscalls of a streaming reader.
type segReader struct {
	data   []byte
	off    int
	schema *sqltypes.Schema
	want   []int // requested schema ordinals
	slot   []int // schema ordinal -> Block slot, -1 when not requested
	blk    Block
	bytes  int64
}

func newSegReader(data []byte, schema *sqltypes.Schema, want []int) *segReader {
	sr := &segReader{
		data:   data,
		schema: schema,
		want:   want,
		slot:   make([]int, schema.Len()),
	}
	for i := range sr.slot {
		sr.slot[i] = -1
	}
	for s, c := range want {
		sr.slot[c] = s
	}
	sr.blk.Cols = make([][]float64, len(want))
	sr.blk.Valid = make([][]bool, len(want))
	return sr
}

// take returns the next n bytes of the image without copying, or
// reports that the stream is short.
func (sr *segReader) take(n int) ([]byte, bool) {
	if n < 0 || len(sr.data)-sr.off < n {
		return nil, false
	}
	b := sr.data[sr.off : sr.off+n]
	sr.off += n
	return b, true
}

// next decodes one chunk into the reader's Block. io.EOF is returned
// cleanly at end of stream; every other failure wraps ErrCorrupt.
func (sr *segReader) next() (*Block, error) {
	if sr.off == len(sr.data) {
		return nil, io.EOF
	}
	hdr, ok := sr.take(16)
	if !ok {
		return nil, corruptf("storage: truncated segment chunk header")
	}
	if string(hdr[:4]) != segMagic {
		return nil, corruptf("storage: bad segment chunk magic %q", string(hdr[:4]))
	}
	nrows := int(binary.LittleEndian.Uint32(hdr[4:8]))
	ncols := int(binary.LittleEndian.Uint32(hdr[8:12]))
	bodyLen := int64(binary.LittleEndian.Uint32(hdr[12:16]))
	sr.bytes += 16
	if nrows < 1 || nrows > segChunkRows {
		return nil, corruptf("storage: segment chunk row count %d out of range 1..%d", nrows, segChunkRows)
	}
	if ncols != sr.schema.Len() {
		return nil, corruptf("storage: segment chunk has %d columns, schema has %d", ncols, sr.schema.Len())
	}
	bmLen := (nrows + 7) / 8
	bodyStart := sr.off
	sr.blk.Rows = nrows
	for c := 0; c < ncols; c++ {
		tb, ok := sr.take(1)
		if !ok {
			return nil, corruptf("storage: truncated segment column block")
		}
		tag := tb[0]
		numeric := tag == 1
		if tag > 1 {
			return nil, corruptf("storage: bad segment column tag %d", tag)
		}
		s := sr.slot[c]
		if s < 0 {
			// Not requested: skip the block without decoding.
			skip := bmLen
			if numeric {
				skip += 16 + nrows*8
			}
			if _, ok := sr.take(skip); !ok {
				return nil, corruptf("storage: truncated segment column block")
			}
			continue
		}
		bm, ok := sr.take(bmLen)
		if !ok {
			return nil, corruptf("storage: truncated segment bitmap")
		}
		if cap(sr.blk.Valid[s]) < nrows {
			sr.blk.Valid[s] = make([]bool, nrows)
			sr.blk.Cols[s] = make([]float64, nrows)
		}
		valid := sr.blk.Valid[s][:nrows]
		vals := sr.blk.Cols[s][:nrows]
		sr.blk.Valid[s] = valid
		sr.blk.Cols[s] = vals
		if !numeric {
			// Non-numeric columns carry no kernel operands; every lane
			// is invalid regardless of the (informational) null bitmap.
			for r := range valid {
				valid[r] = false
				vals[r] = 0
			}
			continue
		}
		if _, ok := sr.take(16); !ok { // min/max, unused by scans
			return nil, corruptf("storage: truncated segment min/max")
		}
		raw, ok := sr.take(nrows * 8)
		if !ok {
			return nil, corruptf("storage: truncated segment values")
		}
		for r := 0; r < nrows; r++ {
			vals[r] = math.Float64frombits(binary.LittleEndian.Uint64(raw[r*8:]))
		}
		// Expand the bitmap a byte at a time; full bytes (the common
		// NULL-free case) take the memset-like branch.
		for i, b := range bm {
			base := i * 8
			end := base + 8
			if end > nrows {
				end = nrows
			}
			if b == 0xff {
				for r := base; r < end; r++ {
					valid[r] = true
				}
				continue
			}
			for r := base; r < end; r++ {
				valid[r] = b&(1<<(r-base)) != 0
			}
		}
	}
	consumed := int64(sr.off - bodyStart)
	if consumed != bodyLen {
		return nil, corruptf("storage: segment chunk body is %d bytes, header says %d", consumed, bodyLen)
	}
	sr.bytes += consumed
	return &sr.blk, nil
}

// countSegRows walks an existing segment file's chunk headers, checking
// structural integrity and returning the total row count. Used to adopt
// a segment left by a previous process.
func countSegRows(path string, schema *sqltypes.Schema) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sr := newSegReader(data, schema, nil)
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
// the row path's.
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
	for _, c := range cols {
		if c < 0 || c >= t.schema.Len() {
			return st, fmt.Errorf("storage: column ordinal %d out of range 0..%d", c, t.schema.Len()-1)
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
	data, err := os.ReadFile(t.segPathLocked(p))
	if err != nil {
		return st, fmt.Errorf("storage: table %q partition %d: %w", t.name, p, ErrSegmentStale)
	}
	sr := newSegReader(data, t.schema, cols)
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
	blk := Block{
		Cols:  make([][]float64, len(cols)),
		Valid: make([][]bool, len(cols)),
	}
	for s := range cols {
		blk.Cols[s] = make([]float64, 0, segChunkRows)
		blk.Valid[s] = make([]bool, 0, segChunkRows)
	}
	for off := 0; off < len(mem); off += segChunkRows {
		n := len(mem) - off
		if n > segChunkRows {
			n = segChunkRows
		}
		blk.Rows = n
		for s, c := range cols {
			vals := blk.Cols[s][:n]
			valid := blk.Valid[s][:n]
			numeric := colNumeric(t.schema.Columns[c])
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
			blk.Cols[s] = vals
			blk.Valid[s] = valid
		}
		if err := deliver(&blk); err != nil {
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
