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
// is one append-only row log, the only thing a write touches; columnar
// segments are a cache derived from it (segment.go).
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
	// segMu serializes segment derivations, which read under mu's read
	// lock (segment.go).
	segMu sync.Mutex
	// rows and epoch are written only under mu but read lock-free, so a
	// summary's freshness check costs no lock (see Epoch).
	rows  atomic.Int64
	epoch atomic.Int64

	fault   *Fault       // test-only fault injection; nil in production
	scanned atomic.Int64 // cumulative rows delivered to scan callbacks
}

// Mark is a position in a partition: after its first Rows rows, which
// end Offset bytes into its row log (0 in memory). Within one epoch a
// partition only grows at its end, so a mark stays a position in it,
// and a float scan resumes from one (ScanPartitionFloats).
type Mark struct{ Rows, Offset int64 }

type partition struct {
	path string         // on-disk file, when dir != ""
	mem  []sqltypes.Row // in-memory rows otherwise
	rows int64
	size int64 // bytes of the row log holding rows (0 in memory)
	// seg is what the partition's segment file covers: a prefix of this
	// row log (no file needed while it is empty), the whole of it iff
	// seg.Rows == rows. Writes never touch it, so it only ever falls
	// behind; a derivation alone moves it forward (see segment.go).
	seg segCover
	// corrupt records why this partition's file can no longer be
	// trusted (a failed rollback truncate left torn bytes); scans of a
	// corrupt partition fail loudly instead of decoding garbage.
	corrupt error
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
			// A stale segment from an earlier table of the same name must
			// not shadow the fresh (empty) row log.
			_ = os.Remove(t.segPathLocked(i))
		}
	}
	return t, nil
}

// OpenTable attaches to a table whose partition files already exist
// under dir (created by a previous process). Row counts are rebuilt by
// scanning the partitions once.
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
	// Count rows by reading the files directly rather than through
	// ScanPartition: the scan path cross-checks decoded row counts
	// against per-partition accounting, which is exactly what attach is
	// still rebuilding here.
	for p := range t.parts {
		count, size, err := countFileRows(t.parts[p].path, schema.Len())
		if err != nil {
			return nil, fmt.Errorf("storage: attaching table %q: %w", name, err)
		}
		t.parts[p].rows, t.parts[p].size = count, size
		// A segment left behind by the previous process is unverified
		// until a derivation walks (and adopts) or rebuilds it.
		t.parts[p].seg.Rows = segUnverified
		t.rows.Add(count)
	}
	return t, nil
}

// countFileRows decodes an entire row-log file, returning how many rows
// it holds and their bytes; any decode failure surfaces as ErrCorrupt.
func countFileRows(path string, arity int) (count, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	rr := newRowReader(f, arity)
	defer rr.release()
	var row sqltypes.Row
	for {
		row, err = rr.next(row)
		if err == io.EOF {
			return count, rr.bytes(), nil
		}
		if err != nil {
			return count, 0, err
		}
		count++
	}
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
	return t.scanPartition(ctx, p, Mark{}, nil, nil, fn)
}

// ScanPartitionFloats is ScanPartitionStats in the float decode mode:
// a row whose cols are all DOUBLE or BIGINT is decoded straight into
// floats — x[j] is column cols[j], a BIGINT widened — and handed to
// floats, stepping over the other cells without boxing them; a row with
// a NULL or a VARCHAR in one of cols, or a BIGINT beyond ±2⁵³ that a
// float would round, goes to rows, boxed, exactly as ScanPartitionStats
// delivers it. Every row goes to exactly one of the
// two, in partition order, and everything else — the corrupt-partition
// refusal, the row-count check against the accounting, ErrCorrupt, byte
// accounting, cancellation and fault injection — is the row scan's.
// x is the scan's buffer: read-only, valid for the call. cols must be
// distinct ordinals of the schema.
//
// The scan covers the rows after from: the zero Mark reads the whole
// partition, the End of an earlier scan of it at the same epoch only
// the rows appended since (a row log is read from that offset on).
func (t *Table) ScanPartitionFloats(ctx context.Context, p int, from Mark, cols []int, floats func(x []float64) error, rows func(sqltypes.Row) error) (ScanStats, error) {
	fd, err := t.newFloatDecode(cols, floats)
	if err != nil {
		return ScanStats{}, err
	}
	return t.scanPartition(ctx, p, from, nil, fd, rows)
}

// ScanPartitionSegment scans partition p from its segment: the rows the
// segment covers arrive as blocks of cols, as ScanPartitionBlocks
// delivers them, and the rows appended since it was derived follow in
// order — decoded to floats of cols when floats is set, as
// ScanPartitionFloats delivers them, boxed through rows otherwise. A
// partition whose segment covers none of its rows (never derived, or
// unverified after OpenTable) and every partition of an in-memory
// table return ErrSegmentStale before anything is delivered.
func (t *Table) ScanPartitionSegment(ctx context.Context, p int, cols []int, blocks func(*Block) error, floats func([]float64) error, rows func(sqltypes.Row) error) (ScanStats, error) {
	var fd *floatDecode
	if floats != nil {
		var err error
		if fd, err = t.newFloatDecode(cols, floats); err != nil {
			return ScanStats{}, err
		}
	}
	return t.scanPartition(ctx, p, Mark{}, &blockRead{cols: cols, fn: blocks}, fd, rows)
}

// floatDecode is a float-mode scan's request and buffer.
type floatDecode struct {
	want []int // per schema column, its slot in x; -1 when not requested
	cols []int // per slot, its schema column
	x    []float64
	fn   func([]float64) error
}

// newFloatDecode checks cols against the schema and sets up their decode.
func (t *Table) newFloatDecode(cols []int, fn func([]float64) error) (*floatDecode, error) {
	fd := &floatDecode{want: make([]int, t.schema.Len()), cols: cols, x: make([]float64, len(cols)), fn: fn}
	for i := range fd.want {
		fd.want[i] = -1
	}
	for j, c := range cols {
		if c < 0 || c >= len(fd.want) || fd.want[c] >= 0 {
			return nil, fmt.Errorf("storage: float scan of table %q: column ordinals %v must be distinct and in 0..%d", t.name, cols, len(fd.want)-1)
		}
		fd.want[c] = j
	}
	return fd, nil
}

// unbox is the float decode of an in-memory row: the same rule as the
// row log's nextFloats.
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

// scanPartition is the one partition-scan body: the row scan when fd is
// nil, the float decode mode otherwise, over the rows after from — or,
// with br set, the segment's rows as blocks and then those after the
// segment's end.
func (t *Table) scanPartition(ctx context.Context, p int, from Mark, br *blockRead, fd *floatDecode, fn func(sqltypes.Row) error) (ScanStats, error) {
	var st ScanStats
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
	if br != nil {
		if err := br.check(t); err != nil {
			return st, err
		}
	}
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
	st.End = Mark{Rows: part.rows, Offset: part.size}
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
	var segBytes int64 // bytes of the segment read ahead of the row log
	if br != nil {
		seg := part.seg
		if t.dir == "" || seg.Rows < 0 || seg.Rows == 0 && part.rows > 0 || br.whole && seg.Rows != part.rows {
			return st, fmt.Errorf("storage: table %q partition %d: %w", t.name, p, ErrSegmentStale)
		}
		if seg.Rows > 0 {
			var err error
			if blocks, err = t.readSegLocked(ctx, p, br, &st); err != nil {
				return st, err
			}
		}
		if seg.Rows == part.rows {
			return st, nil
		}
		from, segBytes = seg.Mark, st.Bytes
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
	if t.dir == "" {
		for _, r := range part.mem[from.Rows:] {
			if err := admit(); err != nil {
				return st, err
			}
			var err error
			if fd != nil && fd.unbox(r) {
				err = fd.fn(fd.x)
			} else {
				err = fn(r)
			}
			if err != nil {
				return st, err
			}
		}
		return st, nil
	}
	if from.Rows > 0 && from.Rows == part.rows {
		return st, nil // nothing appended since the mark: the log stays shut
	}
	f, err := os.Open(part.path)
	if err != nil {
		return st, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	if from.Offset > 0 {
		if _, err := f.Seek(from.Offset, io.SeekStart); err != nil {
			return st, fmt.Errorf("storage: %w", err)
		}
	}
	rr := newRowReader(f, t.schema.Len())
	defer rr.release()
	var row sqltypes.Row
	var decoded int64
	for {
		if fd != nil && rr.nextFloats(fd.want, fd.x) {
			st.Bytes = segBytes + rr.bytes()
			decoded++
			if err := admit(); err != nil {
				return st, err
			}
			if err := fd.fn(fd.x); err != nil {
				return st, err
			}
			continue
		}
		row, err = rr.next(row)
		st.Bytes = segBytes + rr.bytes()
		if err == io.EOF {
			// A file truncated exactly at a row boundary decodes cleanly
			// but short — without this cross-check against the partition
			// accounting the scan would silently drop the tail rows.
			// (Extra rows are equally untrustworthy: a torn append that
			// never rolled back.)
			if want := part.rows - from.Rows; decoded != want {
				return st, corruptf("storage: table %q partition %d decoded %d rows but accounting says %d",
					t.name, p, decoded, want)
			}
			return st, nil
		}
		if err != nil {
			return st, err
		}
		decoded++
		if err := admit(); err != nil {
			return st, err
		}
		if err := fn(row); err != nil {
			return st, err
		}
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

// Truncate removes all rows. A partition whose segment cannot be
// removed or whose file cannot be rewritten keeps its rows (and its
// count), so per-partition accounting stays consistent even on a
// partial truncate; rewriting the file empty also clears any corruption
// marker, since the torn bytes are gone.
func (t *Table) Truncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch.Add(1)
	var removed int64
	var first error
	for i := range t.parts {
		if t.dir != "" {
			// The segment goes first: a file that outlived its row log
			// would pass for a snapshot of whatever is inserted next.
			err := os.Remove(t.segPathLocked(i))
			if err == nil || os.IsNotExist(err) {
				t.parts[i].seg = segCover{}
				err = os.WriteFile(t.parts[i].path, nil, 0o644)
			}
			if err != nil {
				if first == nil {
					first = fmt.Errorf("storage: %w", err)
				}
				continue
			}
		}
		removed += t.parts[i].rows
		t.parts[i].mem = nil
		t.parts[i].rows, t.parts[i].size = 0, 0
		t.parts[i].corrupt = nil
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
	}
	return first
}

// SizeBytes returns the total on-disk size (0 for in-memory tables);
// the ODBC export simulator uses this to model transfer volume.
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
