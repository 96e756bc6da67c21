// Package summary is the summary-statistics catalog: per table, n/L/Q
// entries keyed by (table, column set, matrix type). The paper's central
// observation — the sufficient statistics n, L, Q decouple model
// building from the data scan, and are additively mergeable under the
// merge the 4-phase aggregate protocol performs per partition — means
// rows once read never need reading again. An entry keeps, per
// partition, the n/L/Q of the rows it has read and the mark where they
// end (storage.Mark). A partition only grows at its end, so a read
// resumes each partition's own state over the rows appended since and
// merges the partitions in order, as a scan from the start would: the
// summary a warm entry serves is, bit for bit, the one a rescan — and
// the paper's statement — computes. An entry that covers the table is
// served in O(d²) with no scan at all.
//
// The write path knows nothing of summaries: entries catch up by
// reading. A table's epoch moves when its rows stop being only appended
// (truncate, drop, a partition marked corrupt); an entry read at an
// older epoch reads the table from the start. A write that rolls back
// cleanly leaves the table, and so every entry, as it was.
package summary

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// Catalog holds the summary entries of one database instance.
type Catalog struct {
	workers int // cap on a scan's workers (exec.Env.Workers); <= 0 sets none

	mu      sync.Mutex
	entries map[string]*entry
}

// NewCatalog creates an empty catalog whose scans use the given worker
// count. A read of an on-disk table, from the start or resumed, runs
// block-wise over its rows; the block kernels are bit-identical to the
// row path, so the summaries are the same either way.
func NewCatalog(workers int) *Catalog {
	return &Catalog{workers: workers, entries: make(map[string]*entry)}
}

// entry is one maintained summary. Reads that scan serialize on mu; a
// read the published state already answers takes no lock.
type entry struct {
	table    *storage.Table
	colNames []string
	mt       core.MatrixType
	// scan is planned with the entry: a read plans nothing and reuses the
	// plan's pooled workers.
	scan *exec.TableNLQ

	mu  sync.Mutex            // serializes reads that scan, and Invalidate
	cur atomic.Pointer[state] // what the entry has read; nil when cold

	hits, misses, incRows, rebuilds atomic.Int64
	lastRebuildNanos                atomic.Int64
}

// state is what an entry has read of its table at one epoch: per
// partition, the n/L/Q of the rows before its mark (nil while none has
// been read), and their merge in partition order. A published state is
// never mutated.
type state struct {
	epoch int64
	marks []storage.Mark
	parts []*core.NLQ
	sum   *core.NLQ
	rows  int64 // rows read, NULL rows included: the marks' sum
}

// Info is one catalog entry's state, served by sys.summaries.
type Info struct {
	Table   string
	Columns []string
	Matrix  core.MatrixType
	// State is "fresh" (the entry covers the table), "stale" (rows were
	// appended since; the next read reads only them) or "cold" (nothing
	// read, or the table's epoch moved; the next read reads every row).
	State       string
	N           float64
	Covered     int64
	Epoch       int64
	Hits        int64
	Misses      int64
	IncRows     int64
	Rebuilds    int64
	LastRebuild time.Duration
}

func entryKey(table string, cols []string, mt core.MatrixType) string {
	return strings.ToLower(table) + "|" + strings.ToLower(strings.Join(cols, ",")) + "|" + mt.String()
}

// resolveColumns maps names to ordinals, requiring numeric types — a
// summary over VARCHAR would silently skip every row.
func resolveColumns(s *sqltypes.Schema, cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, name := range cols {
		j := s.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("summary: no column %q", name)
		}
		if !storage.NumericColumn(s.Columns[j]) {
			return nil, fmt.Errorf("summary: column %q has non-numeric type %s", name, s.Columns[j].Type)
		}
		idx[i] = j
	}
	return idx, nil
}

// get returns the entry for (t, cols, mt), creating it on first use. A
// stored entry whose table pointer differs from t (the table was dropped
// and recreated under the same name) is replaced.
func (c *Catalog) get(t *storage.Table, cols []string, mt core.MatrixType) (*entry, error) {
	idx, err := resolveColumns(t.Schema(), cols)
	if err != nil {
		return nil, fmt.Errorf("%w (table %q)", err, t.Name())
	}
	key := entryKey(t.Name(), cols, mt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.table == t {
		return e, nil
	}
	scan, err := exec.PrepareTableNLQ(t, idx, mt, c.workers, true)
	if err != nil {
		return nil, err
	}
	e := &entry{table: t, colNames: append([]string(nil), cols...), mt: mt, scan: scan}
	c.entries[key] = e
	return e, nil
}

// NLQ returns the summary for (t, cols, mt). hit reports whether a warm
// entry served it — with no scan when it covered the table, else after
// reading only the rows appended since — rather than a read of every
// row. The returned NLQ is the caller's to mutate.
func (c *Catalog) NLQ(ctx context.Context, t *storage.Table, cols []string, mt core.MatrixType) (s *core.NLQ, hit bool, err error) {
	e, err := c.get(t, cols, mt)
	if err != nil {
		return nil, false, err
	}
	st := e.current()
	hit = true
	if st == nil {
		if st, hit, err = e.read(ctx); err != nil {
			return nil, false, err
		}
	}
	if hit {
		e.hits.Add(1)
		obs.SummaryHits.Inc()
	} else {
		e.misses.Add(1)
		obs.SummaryMisses.Inc()
	}
	return st.sum.Clone(), hit, nil
}

// Invalidate marks every entry of the named table cold, forcing the
// next read of each to read every row. The bench harness uses it to
// measure cold builds.
func (c *Catalog) Invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if strings.EqualFold(e.table.Name(), table) {
			e.mu.Lock()
			e.cur.Store(nil)
			e.mu.Unlock()
		}
	}
}

// DropTable removes every entry of the named table; called when the
// table leaves the catalog.
func (c *Catalog) DropTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if strings.EqualFold(e.table.Name(), table) {
			delete(c.entries, k)
		}
	}
}

// Snapshot returns the state of every entry, sorted by table then
// column list; sys.summaries serves it.
func (c *Catalog) Snapshot() []Info {
	c.mu.Lock()
	entries := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return strings.Join(out[i].Columns, ",") < strings.Join(out[j].Columns, ",")
	})
	return out
}

func (e *entry) info() Info {
	inf := Info{
		Table:       e.table.Name(),
		Columns:     append([]string(nil), e.colNames...),
		Matrix:      e.mt,
		State:       "cold",
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		IncRows:     e.incRows.Load(),
		Rebuilds:    e.rebuilds.Load(),
		LastRebuild: time.Duration(e.lastRebuildNanos.Load()),
	}
	if s := e.cur.Load(); s != nil {
		inf.N, inf.Covered, inf.Epoch = s.sum.N, s.rows, s.epoch
		switch {
		case s.epoch != e.table.Epoch(): // cold: the next read reads every row
		case s.rows == e.table.NumRows():
			inf.State = "fresh"
		default:
			inf.State = "stale"
		}
	}
	return inf
}

// current returns the published state if it covers the table as it
// stands: read at the table's epoch, through its row count. Within an
// epoch every mark is at most its partition's count, so equal sums mean
// every partition is read to its end. The stamps are read lock-free —
// epoch, count, epoch — so a torn read can only miss.
func (e *entry) current() *state {
	s := e.cur.Load()
	if s == nil {
		return nil
	}
	epoch := e.table.Epoch()
	if s.epoch != epoch || s.rows != e.table.NumRows() || e.table.Epoch() != epoch {
		return nil
	}
	return s
}

// maxReads bounds how often one call chases a table that keeps changing.
const maxReads = 4

// read brings the entry up to its table. A write that lands while the
// partitions are read leaves the entry short of the row count, and the
// rows it appended are read next; a table that never sits still is
// served its last read, which holds each partition as some committed
// write left it, as any statement's scan does. hit is false when some
// pass read every row.
func (e *entry) read(ctx context.Context) (s *state, hit bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hit = true
	for range maxReads {
		if cur := e.current(); cur != nil {
			return cur, hit, nil // caught up, perhaps by a reader we queued behind
		}
		next, warm, err := e.advance(ctx)
		if err != nil {
			return nil, false, err
		}
		hit = hit && warm
		if next != nil {
			s = next
		}
	}
	if s == nil {
		return nil, false, fmt.Errorf("summary: table %q was truncated under each of %d reads", e.table.Name(), maxReads)
	}
	return s, hit, nil
}

// advance reads what the entry has not: the rows after each partition's
// mark when it is warm — read at the table's current epoch — and every
// row otherwise. It publishes the new state unless the epoch moved
// meanwhile and returns it either way; it returns nil when the epoch
// moved under a resumed scan, whose marks it may have outrun.
func (e *entry) advance(ctx context.Context) (next *state, warm bool, err error) {
	prev, epoch := e.cur.Load(), e.table.Epoch()
	n := e.table.Partitions()
	next = &state{epoch: epoch, marks: make([]storage.Mark, n), parts: make([]*core.NLQ, n)}
	warm = prev != nil && prev.epoch == epoch
	if warm {
		copy(next.marks, prev.marks)
		for p, q := range prev.parts {
			if q != nil {
				next.parts[p] = q.Clone()
			}
		}
	}
	start := time.Now()
	rows, err := e.scan.Read(ctx, next.marks, next.parts)
	if err != nil {
		if warm && e.table.Epoch() != epoch {
			return nil, warm, nil
		}
		return nil, false, err
	}
	if next.sum, err = core.NewNLQ(len(e.colNames), e.mt); err != nil {
		return nil, false, err
	}
	for _, q := range next.parts {
		if q == nil {
			continue
		}
		if err := next.sum.Merge(q); err != nil {
			return nil, false, err
		}
	}
	for _, m := range next.marks {
		next.rows += m.Rows
	}
	if warm {
		e.incRows.Add(rows)
		obs.SummaryIncremental.Add(rows)
	} else {
		d := time.Since(start)
		e.rebuilds.Add(1)
		e.lastRebuildNanos.Store(int64(d))
		obs.SummaryRebuildSeconds.Observe(d.Seconds())
	}
	if e.table.Epoch() == epoch {
		e.cur.Store(next)
	}
	return next, warm, nil
}
