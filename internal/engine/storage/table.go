package storage

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

// DefaultPartitions models the paper's 20 parallel Teradata threads.
const DefaultPartitions = 20

// Table is a horizontally partitioned relation. Rows are distributed
// round-robin across partitions (the paper: "data sets were
// horizontally partitioned evenly among threads"). An on-disk partition
// keeps each row once: its first rows in sealed column chunks, the rest
// in a row log that writes append to (segment.go).
//
// The guards directive below lets statlint's lockreent analyzer prove,
// over the whole program, that nothing re-enters mu: *Locked methods
// and scan callbacks run with mu held and must not call back into the
// locking API (Insert, Scan, Rows...).
//
//statlint:guards mu
type Table struct {
	name   string
	schema *sqltypes.Schema
	dir    string // "" means in-memory

	mu    sync.RWMutex
	parts []partition
	// rows and epoch are written only under mu but read lock-free, so a
	// summary's freshness check costs no lock (see Epoch).
	rows  atomic.Int64
	epoch atomic.Int64

	fault   *Fault       // test-only fault injection; nil in production
	scanned atomic.Int64 // cumulative rows delivered to scan callbacks
}

// Mark is a position in a partition: after its first Rows rows. Within
// an epoch a partition only grows at its end (a seal moves rows between
// its files, not within it), so a scan resumes from a mark.
type Mark struct{ Rows int64 }

type partition struct {
	path string         // on-disk row log, when dir != ""
	mem  []sqltypes.Row // in-memory rows otherwise
	rows int64          // all of them, sealed ones included
	size int64          // bytes of the row log (0 in memory)
	// The `.seg` holds the first sealed rows in its first segSize bytes;
	// the row log the rest, behind a tail header once sealed > 0.
	sealed  int64
	segSize int64
	// corrupt records why this partition can no longer be trusted (a
	// failed rollback truncate left torn bytes, or its chunks fall short
	// of its log's first row); its scans fail loudly instead of decoding
	// garbage.
	corrupt error
}

// logStart is the offset of the row log's first row.
func (part *partition) logStart() int64 {
	if part.sealed > 0 {
		return tailHead
	}
	return 0
}

// NewTable creates an empty table with the given partition count. If
// dir is non-empty the partitions are files under dir and every scan
// re-reads them from the filesystem; otherwise rows are kept in memory.
func NewTable(name string, schema *sqltypes.Schema, dir string, partitions int) (*Table, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("storage: table %q needs at least 1 partition", name)
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("storage: table %q needs a non-empty schema", name)
	}
	t := &Table{name: name, schema: schema, dir: dir, parts: make([]partition, partitions)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		for i := range t.parts {
			path := filepath.Join(dir, fmt.Sprintf("%s.p%03d.dat", name, i))
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				return nil, fmt.Errorf("storage: %w", err)
			}
			t.parts[i].path = path
			_ = os.Remove(t.segPathLocked(i)) // an earlier table's chunks
		}
	}
	return t, nil
}

// OpenTable attaches to a table whose partition files already exist
// under dir (created by a previous process). Each row log is decoded to
// count its rows, and the chunks before it walked over their headers;
// bytes past them — chunks of a seal cut short, or a `.seg` of an
// earlier layout before a log without a tail header — are cut. A
// partition whose chunks fall short of its log's first row attaches
// corrupt: its scans and the table's writes fail until a truncate.
func OpenTable(name string, schema *sqltypes.Schema, dir string, partitions int) (*Table, error) {
	if dir == "" {
		return nil, fmt.Errorf("storage: OpenTable requires a directory")
	}
	if partitions < 1 {
		return nil, fmt.Errorf("storage: table %q needs at least 1 partition", name)
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("storage: table %q needs a non-empty schema", name)
	}
	// The count comes from a catalog file: allocate only what is found.
	t := &Table{name: name, schema: schema, dir: dir}
	for i := 0; i < partitions; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s.p%03d.dat", name, i))
		if _, err := os.Stat(path); err != nil {
			return nil, fmt.Errorf("storage: table %q partition missing: %w", name, err)
		}
		t.parts = append(t.parts, partition{path: path})
	}
	for p := range t.parts {
		if err := t.attach(p); err != nil {
			return nil, fmt.Errorf("storage: attaching table %q: %w", name, err)
		}
		t.rows.Add(t.parts[p].rows)
	}
	return t, nil
}

// attach rebuilds partition p's accounting from its files,
// directly: a scan would check the decode against that accounting.
func (t *Table) attach(p int) error {
	part := &t.parts[p]
	f, err := os.Open(part.path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	head := make([]byte, tailHead)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("storage: %w", err)
	}
	first, start, err := parseTailHead(head[:n])
	if err != nil {
		return err
	}
	if _, err := f.Seek(int64(start), io.SeekStart); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	rr := newRowReader(f, t.schema.Len())
	defer rr.release()
	var row sqltypes.Row
	for {
		if row, err = rr.next(row); err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		part.rows++
	}
	part.size = int64(start) + rr.bytes()
	part.rows += first
	part.sealed = first
	seg := t.segPathLocked(p)
	if first == 0 {
		_ = os.Remove(seg) // best-effort: a seal cuts these bytes before it writes, too
		return nil
	}
	sf, size, err := openSeg(seg)
	if err == nil {
		sr := newSegReader(sf, size, t.schema, nil)
		err = walkChunks(sr, first, 0, nil)
		part.segSize = sr.off
		sr.release()
		sf.Close()
	}
	if err != nil {
		part.corrupt = fmt.Errorf("storage: table %q partition %d: sealed chunks: %w", t.name, p, err)
		return nil
	}
	_ = os.Truncate(seg, part.segSize)
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *sqltypes.Schema { return t.schema }

// Partitions returns the partition count.
func (t *Table) Partitions() int { return len(t.parts) }

// NumRows returns the current row count. It is lock-free: the count is
// published atomically after each mutation commits, so readers never
// contend on the table lock.
func (t *Table) NumRows() int64 { return t.rows.Load() }

// Epoch returns the table's epoch. It moves whenever rows stop being
// only appended — a truncate, a drop, a partition marked corrupt — and
// never on a write that commits or rolls back cleanly: within an epoch
// every Mark stays a position in its partition. Lock-free, like
// NumRows; a truncate moves the epoch before the count, so reading
// epoch, count, epoch and finding the epoch unmoved pairs the two.
func (t *Table) Epoch() int64 { return t.epoch.Load() }

// PartitionRowCounts returns the current per-partition row counts; the
// sys.partitions system table serves them.
func (t *Table) PartitionRowCounts() []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int64, len(t.parts))
	for i := range t.parts {
		out[i] = t.parts[i].rows
	}
	return out
}

// OnDisk reports whether partitions live in files.
func (t *Table) OnDisk() bool { return t.dir != "" }

// validate checks row against the schema and writes it, numeric widths
// coerced, into dst — a row of the schema's width that the caller owns;
// row itself is only read. A NULL or a value of its column's type is
// copied through: Coerce would return it unchanged.
func (t *Table) validate(dst, row sqltypes.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: table %q expects %d columns, got %d", t.name, t.schema.Len(), len(row))
	}
	for i, col := range t.schema.Columns {
		if v := row[i]; v.IsNull() || v.Type() == col.Type {
			dst[i] = v
			continue
		}
		v, err := sqltypes.Coerce(row[i], col.Type)
		if err != nil {
			return fmt.Errorf("storage: table %q column %q: %w", t.name, col.Name, err)
		}
		dst[i] = v
	}
	return nil
}

// ScanStats reports what one partition scan consumed.
type ScanStats struct {
	Rows  int64 // rows delivered to the callback
	Bytes int64 // bytes of the partition's file consumed: decoded by a row scan, read by a block scan (0 for in-memory)
	// End is the partition's mark after the rows the scan covered, where
	// a scan resuming it starts; meaningful when the scan succeeded.
	End Mark
}

// ScanPartition iterates the rows of partition p, invoking fn for each.
// The row passed to fn is reused between calls; fn must clone it to
// retain it. On-disk partitions are opened and read from the filesystem
// on every call — the engine never caches table data, matching the
// paper's measurement methodology. Cancellation of ctx (nil is treated
// as background) is observed between rows, so a long scan stops soon
// after a sibling partition fails.
func (t *Table) ScanPartition(ctx context.Context, p int, fn func(sqltypes.Row) error) error {
	_, err := t.ScanPartitionStats(ctx, p, fn)
	return err
}

// ScanPartitionStats is ScanPartition returning per-scan statistics;
// the stats cover whatever was read before an error, so failed scans
// still report how far they got.
func (t *Table) ScanPartitionStats(ctx context.Context, p int, fn func(sqltypes.Row) error) (ScanStats, error) {
	return t.ScanPartitionRead(ctx, p, Read{Rows: fn})
}

// Read is a partition scan's request. It covers the rows after From:
// the zero Mark reads the whole partition, the End of an earlier scan
// of it at the same epoch only the rows appended since. Every row goes
// to exactly one consumer, in partition order: Blocks, when set, takes
// each sealed chunk as a block of the distinct schema ordinals Cols;
// Floats, when set, each other row whose Cols are all DOUBLE, or BIGINT
// within ±2⁵³, decoded into x (x[j] is column Cols[j]; the scan's
// buffer, valid for the call) without boxing the other cells; Rows
// every row left, boxed and reused between calls.
type Read struct {
	From   Mark
	Cols   []int
	Blocks func(*Block) error
	Floats func(x []float64) error
	Rows   func(sqltypes.Row) error
}

// floatDecode is a float-mode scan's columns and buffer.
type floatDecode struct {
	want []int // per schema column, its slot in x; -1 when not requested
	cols []int // per slot, its schema column
	x    []float64
}

// newFloatDecode checks cols against the schema and sets up their decode.
func (t *Table) newFloatDecode(cols []int) (*floatDecode, error) {
	fd := &floatDecode{want: make([]int, t.schema.Len()), cols: cols, x: make([]float64, len(cols))}
	for i := range fd.want {
		fd.want[i] = -1
	}
	for j, c := range cols {
		if c < 0 || c >= len(fd.want) || fd.want[c] >= 0 {
			return nil, fmt.Errorf("storage: scan of table %q: column ordinals %v must be distinct and in 0..%d", t.name, cols, len(fd.want)-1)
		}
		fd.want[c] = j
	}
	return fd, nil
}

// unbox is the float decode of an in-memory row: the same rule as the
// row log's nextFloats and a chunk's floats.
func (fd *floatDecode) unbox(r sqltypes.Row) bool {
	for j, c := range fd.cols {
		v := r[c]
		switch v.Type() {
		case sqltypes.TypeDouble:
		case sqltypes.TypeBigInt:
			if !exactFloat(v.Int()) {
				return false
			}
		default:
			return false
		}
		fd.x[j], _ = v.Float()
	}
	return true
}

// ScanPartitionRead is the one partition scan: req's rows of partition
// p — its sealed chunks, then its tail or an in-memory partition's rows
// — delivered as req asks. The stats cover whatever was read before an
// error. A corrupt partition is refused, a row log that decodes short
// of or past the partition's accounting fails ErrCorrupt, and
// cancellation of ctx (nil is background) is observed between rows and
// chunks, so a long scan stops soon after a sibling partition fails.
func (t *Table) ScanPartitionRead(ctx context.Context, p int, req Read) (st ScanStats, err error) {
	var blocks int64
	// One set of atomic adds per partition scan (not per row: the
	// partition workers share these cache lines) keeps the table's and
	// the process-wide counters current at near-zero overhead.
	defer func() {
		t.scanned.Add(st.Rows)
		obs.RowsScanned.Add(st.Rows)
		obs.BytesRead.Add(st.Bytes)
		obs.ColumnarBlocksScanned.Add(blocks)
	}()
	if p < 0 || p >= len(t.parts) {
		return st, fmt.Errorf("storage: partition %d out of range 0..%d", p, len(t.parts)-1)
	}
	var fd *floatDecode // a row scan allocates none
	if req.Cols != nil || req.Floats != nil {
		if fd, err = t.newFloatDecode(req.Cols); err != nil {
			return st, err
		}
	}
	if req.Floats == nil {
		fd = nil
	}
	from, fn := req.From, req.Rows
	// Normalize at the boundary: a nil ctx means background, and
	// context.Background().Done() is nil, so the per-row fast path
	// below still skips the select entirely.
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	ctxErr := ctx.Err
	t.mu.RLock()
	defer t.mu.RUnlock()
	part := &t.parts[p]
	if c := part.corrupt; c != nil {
		return st, fmt.Errorf("storage: refusing to scan corrupt partition %d of table %q: %w", p, t.name, c)
	}
	if from.Rows < 0 || from.Rows > part.rows {
		return st, fmt.Errorf("storage: table %q partition %d holds %d rows; no scan resumes after row %d", t.name, p, part.rows, from.Rows)
	}
	st.End = Mark{Rows: part.rows}
	flt := t.fault
	failAfter := int64(-1)
	if flt.matches(p) {
		if flt.ScanOpen {
			return st, flt.err()
		}
		if flt.ScanAfterRows > 0 {
			failAfter = flt.ScanAfterRows
		}
	}
	// admit runs before each row is handed on, whichever its decode.
	admit := func() error {
		if done != nil && st.Rows&63 == 0 {
			select {
			case <-done:
				return ctxErr()
			default:
			}
		}
		if failAfter >= 0 && st.Rows >= failAfter {
			return flt.err()
		}
		st.Rows++
		return nil
	}
	if from.Rows < part.sealed {
		var row sqltypes.Row
		each := func(sr *segReader, skip int) error {
			cc, err := sr.chunk()
			if err != nil {
				return err
			}
			for r := skip; r < cc.sh.rows; r++ {
				if err := admit(); err != nil {
					return err
				}
				if fd != nil && cc.floats(r, fd) {
					err = req.Floats(fd.x)
				} else if row, err = cc.row(r, row); err == nil {
					err = fn(row)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		var cols []int
		if req.Blocks != nil {
			cols = req.Cols
			each = func(sr *segReader, skip int) error {
				blk, err := sr.block()
				if err != nil {
					return err
				}
				blk.from(skip)
				st.Rows += int64(blk.Rows)
				blocks++
				return req.Blocks(blk)
			}
		}
		if err := t.scanChunksLocked(ctx, p, from.Rows, cols, &st, each); err != nil {
			return st, err
		}
	}
	after := max(from.Rows, part.sealed) // the first row of the rest
	if after == part.rows {
		return st, nil // nothing past the chunks: the log stays shut
	}
	tr, err := t.openTailLocked(p, after)
	if err != nil {
		return st, err
	}
	defer tr.close()
	chunkBytes := st.Bytes
	defer func() { st.Bytes = chunkBytes + tr.bytes() }()
	var row sqltypes.Row
	for {
		if fd != nil && tr.floats(fd) {
			if err := admit(); err != nil {
				return st, err
			}
			if err := req.Floats(fd.x); err != nil {
				return st, err
			}
			continue
		}
		if row, err = tr.next(row); err == io.EOF {
			return st, nil
		}
		if err != nil {
			return st, err
		}
		if err := admit(); err != nil {
			return st, err
		}
		if err := fn(row); err != nil {
			return st, err
		}
	}
}

// tailRows reads a partition's rows after its chunks: in memory, or
// from its row log.
type tailRows struct {
	t    *Table
	p    int
	mem  []sqltypes.Row
	f    *os.File
	rr   *rowReader
	at   int64 // the log's first byte
	left int64 // rows the accounting says are still to come
}

// openTailLocked opens partition p's rows after row at (≥ its sealed
// rows), stepping over the log's rows before at unread.
func (t *Table) openTailLocked(p int, at int64) (tailRows, error) {
	part := &t.parts[p]
	tr := tailRows{t: t, p: p, left: part.rows - at}
	if t.dir == "" {
		tr.mem = part.mem[at:part.rows]
		return tr, nil
	}
	f, err := os.Open(part.path)
	if err != nil {
		return tailRows{}, fmt.Errorf("storage: %w", err)
	}
	tr.f, tr.at = f, part.logStart()
	if _, err := f.Seek(tr.at, io.SeekStart); err != nil {
		f.Close()
		return tailRows{}, fmt.Errorf("storage: %w", err)
	}
	tr.rr = newRowReader(f, t.schema.Len())
	skip, _ := t.newFloatDecode(nil)
	tr.left = part.rows - part.sealed
	for skipped := part.sealed; skipped < at; skipped++ {
		if !tr.floats(skip) {
			if _, err := tr.next(nil); err != nil {
				tr.close()
				return tailRows{}, err
			}
		}
	}
	return tr, nil
}

// next boxes the next row into dst, io.EOF after the last. A log that
// ends short of the accounting — cut at a row boundary, it decodes
// cleanly — or runs on past it fails ErrCorrupt.
func (tr *tailRows) next(dst sqltypes.Row) (sqltypes.Row, error) {
	if tr.rr == nil {
		if len(tr.mem) == 0 {
			return nil, io.EOF
		}
		r := tr.mem[0]
		tr.mem, tr.left = tr.mem[1:], tr.left-1
		return r, nil
	}
	row, err := tr.rr.next(dst)
	switch {
	case err == io.EOF && tr.left > 0:
		return nil, corruptf("storage: table %q partition %d row log ends %d rows short of its accounting", tr.t.name, tr.p, tr.left)
	case err == nil && tr.left == 0:
		return nil, corruptf("storage: table %q partition %d row log holds rows past its accounting", tr.t.name, tr.p)
	case err == nil:
		tr.left--
	}
	return row, err
}

// floats is next's float decode (nextFloats, unbox): false, nothing
// consumed, for a row it declines.
func (tr *tailRows) floats(fd *floatDecode) bool {
	switch {
	case tr.rr != nil:
		if tr.left == 0 || !tr.rr.nextFloats(fd.want, fd.x) {
			return false
		}
	case len(tr.mem) == 0 || !fd.unbox(tr.mem[0]):
		return false
	default:
		tr.mem = tr.mem[1:]
	}
	tr.left--
	return true
}

// bytes is the log bytes decoded so far, the header included.
func (tr *tailRows) bytes() int64 {
	if tr.rr == nil {
		return 0
	}
	return tr.at + tr.rr.bytes()
}

func (tr *tailRows) close() {
	if tr.rr != nil {
		tr.rr.release()
		tr.f.Close()
	}
}

// Scan iterates all partitions sequentially. Parallel scans are driven
// by the executor calling ScanPartition from multiple goroutines.
// Context-carrying callers must use ScanContext instead so the scan
// observes cancellation (the statlint ctxscan analyzer enforces this).
func (t *Table) Scan(fn func(sqltypes.Row) error) error {
	return t.ScanContext(context.Background(), fn)
}

// ScanContext is Scan observing ctx cancellation between rows (nil is
// normalized to background at the boundary).
func (t *Table) ScanContext(ctx context.Context, fn func(sqltypes.Row) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for p := 0; p < len(t.parts); p++ {
		if err := t.ScanPartition(ctx, p, fn); err != nil {
			return err
		}
	}
	return nil
}

// Truncate removes all rows. A partition whose row log cannot be
// rewritten empty keeps its rows and count, so accounting survives a
// partial truncate; an empty log has no tail header, so its chunks are
// unread whether or not their file is removed. Rewriting the log also
// clears any corruption marker: the torn bytes are gone.
func (t *Table) Truncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch.Add(1)
	var removed int64
	var first error
	for i := range t.parts {
		if t.dir != "" {
			if err := os.WriteFile(t.parts[i].path, nil, 0o644); err != nil {
				if first == nil {
					first = fmt.Errorf("storage: %w", err)
				}
				continue
			}
			_ = os.Remove(t.segPathLocked(i))
		}
		removed += t.parts[i].rows
		t.parts[i] = partition{path: t.parts[i].path}
	}
	t.rows.Add(-removed)
	return first
}

// Drop removes the table's on-disk files.
func (t *Table) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch.Add(1)
	t.rows.Store(0)
	if t.dir == "" {
		t.parts = make([]partition, len(t.parts))
		return nil
	}
	var first error
	for i := range t.parts {
		if err := os.Remove(t.parts[i].path); err != nil && !os.IsNotExist(err) && first == nil {
			first = fmt.Errorf("storage: %w", err)
		}
		_ = os.Remove(t.segPathLocked(i))
		_ = os.Remove(t.parts[i].path + ".tmp")
	}
	return first
}

// SizeBytes returns the bytes of the partitions' row logs (0 for
// in-memory tables); Segments reports the bytes of their sealed chunks.
func (t *Table) SizeBytes() (int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.dir == "" {
		return 0, nil
	}
	var total int64
	for i := range t.parts {
		st, err := os.Stat(t.parts[i].path)
		if err != nil {
			return 0, fmt.Errorf("storage: %w", err)
		}
		total += st.Size()
	}
	return total, nil
}
