// Package summary is the incremental summary-statistics subsystem: a
// per-table catalog of n/L/Q accumulators, keyed by (table, column
// set, matrix type), kept fresh by delta-merging the contribution of
// every insert and bulk-load append at write time. The paper's central
// observation — the sufficient statistics n, L, Q decouple model
// building from the data scan, and are additively mergeable under the
// same merge the 4-phase aggregate protocol performs per partition —
// means a warm entry rebuilds any linear model in O(d²) with zero
// partition scans. A cold or stale entry falls back transparently to
// one parallel scan (per-partition partials merged phase-3 style) and
// installs the result for subsequent reads.
//
// Consistency is stamp-based. Tables expose a lock-free validity stamp
// (row count, mutation epoch); an entry is servable only when its own
// accounting matches the stamp exactly. Write-path callbacks run under
// the table lock, so appends fold in atomically with the mutation that
// publishes them; anything else — fault, rollback, truncate, DDL —
// bumps the epoch and invalidates. Rebuilds race inserts safely by
// recording the epoch before the scan and installing under the table
// lock only if it has not moved (bounded retries; on exhaustion the
// scan result is served without being installed, which is exactly the
// legacy one-scan behavior).
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
	workers  int  // parallel rebuild width; <= 0 means one goroutine per partition
	columnar bool // rebuild scans use block kernels where eligible

	mu      sync.Mutex
	entries map[string]*entry
}

// NewCatalog creates an empty catalog whose rebuild scans use the
// given worker count. With columnar set, rebuild scans run block-wise
// over column segments where eligible; because the block kernels are
// bit-identical to the row path, cached summaries (and their validity
// stamps) are the same either way.
func NewCatalog(workers int, columnar bool) *Catalog {
	return &Catalog{workers: workers, columnar: columnar, entries: make(map[string]*entry)}
}

// entry is one maintained summary. Lock order is always table lock →
// entry.mu: write-path callbacks arrive holding the table lock and
// take entry.mu; readers under entry.mu only touch the table's
// lock-free stamp accessors, never its lock.
type entry struct {
	table    *storage.Table
	colNames []string
	cols     []int
	mt       core.MatrixType
	// scan is the rebuild's scan, planned with the entry: a cold rebuild
	// plans nothing and reuses the plan's pooled workers.
	scan func(context.Context) ([]*core.NLQ, int64, error)

	buildMu sync.Mutex // serializes rebuild scans for this entry

	mu      sync.Mutex
	fresh   bool
	agg     *core.NLQ // merged summary; nil when cold
	covered int64     // rows folded into agg (including skipped NULL rows)
	epoch   int64     // table epoch agg is valid for
	x       []float64 // scratch for incremental extraction

	hits, misses, incRows, rebuilds atomic.Int64
	lastRebuildNanos                atomic.Int64
}

// Info is one catalog entry's state, served by sys.summaries.
type Info struct {
	Table       string
	Columns     []string
	Matrix      core.MatrixType
	State       string // "fresh", "stale" or "cold"
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

// get returns the entry for (t, cols, mt), creating and registering it
// on first use. A stored entry whose table pointer differs from t (the
// table was dropped and recreated under the same name) is discarded.
func (c *Catalog) get(t *storage.Table, cols []string, mt core.MatrixType) (*entry, error) {
	idx, err := resolveColumns(t.Schema(), cols)
	if err != nil {
		return nil, fmt.Errorf("%w (table %q)", err, t.Name())
	}
	key := entryKey(t.Name(), cols, mt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		if e.table == t {
			return e, nil
		}
		e.table.Unobserve(e)
	}
	scan, err := exec.PrepareTableNLQ(t, idx, mt, c.workers, c.columnar)
	if err != nil {
		return nil, err
	}
	e := &entry{
		table:    t,
		colNames: append([]string(nil), cols...),
		cols:     idx,
		mt:       mt,
		scan:     scan,
		x:        make([]float64, len(idx)),
	}
	t.Observe(e)
	c.entries[key] = e
	return e, nil
}

// NLQ returns the summary for (t, cols, mt). hit reports whether it
// was served from a warm entry — zero partition scans — rather than
// rebuilt. The returned NLQ is the caller's to mutate.
func (c *Catalog) NLQ(ctx context.Context, t *storage.Table, cols []string, mt core.MatrixType) (s *core.NLQ, hit bool, err error) {
	e, err := c.get(t, cols, mt)
	if err != nil {
		return nil, false, err
	}
	if s := e.cached(); s != nil {
		e.hits.Add(1)
		obs.SummaryHits.Inc()
		return s, true, nil
	}
	e.misses.Add(1)
	obs.SummaryMisses.Inc()
	s, err = e.rebuild(ctx)
	if err != nil {
		return nil, false, err
	}
	return s, false, nil
}

// Invalidate marks every entry of the named table cold, forcing the
// next read of each through the rebuild path. The bench harness uses
// it to measure cold builds; DDL paths use it defensively.
func (c *Catalog) Invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if strings.EqualFold(e.table.Name(), table) {
			e.OnInvalidate()
		}
	}
}

// DropTable removes (and unregisters) every entry of the named table;
// called when the table leaves the catalog.
func (c *Catalog) DropTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if strings.EqualFold(e.table.Name(), table) {
			e.table.Unobserve(e)
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
	e.mu.Lock()
	inf := Info{
		Table:   e.table.Name(),
		Columns: append([]string(nil), e.colNames...),
		Matrix:  e.mt,
		Covered: e.covered,
		Epoch:   e.epoch,
	}
	switch {
	case !e.fresh:
		inf.State = "cold"
	case e.epoch == e.table.Epoch() && e.covered == e.table.NumRows():
		inf.State = "fresh"
	default:
		inf.State = "stale"
	}
	if e.agg != nil {
		inf.N = e.agg.N
	}
	e.mu.Unlock()
	inf.Hits = e.hits.Load()
	inf.Misses = e.misses.Load()
	inf.IncRows = e.incRows.Load()
	inf.Rebuilds = e.rebuilds.Load()
	inf.LastRebuild = time.Duration(e.lastRebuildNanos.Load())
	return inf
}

// cached returns a clone of the summary iff the entry's accounting
// matches the table's validity stamp exactly; nil means cold or stale.
// The stamp reads are lock-free, so holding e.mu here cannot deadlock
// against a writer holding the table lock and waiting for e.mu in a
// callback. (A writer between its stamp update and its callbacks can
// make a torn read look stale — that costs a spurious rebuild, never
// a wrong answer.)
func (e *entry) cached() *core.NLQ {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.fresh || e.epoch != e.table.Epoch() || e.covered != e.table.NumRows() {
		return nil
	}
	return e.agg.Clone()
}

// rebuild scans the table (phases 1-2 per partition, phase-3 merge)
// and installs the result under the table lock if no mutation raced
// the scan. Concurrent inserts during the scan are detected by the
// epoch check and retried a bounded number of times; if the table
// never sits still, the last scan's result is served without being
// installed — exactly the legacy one-scan behavior.
func (e *entry) rebuild(ctx context.Context) (*core.NLQ, error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	// Another reader may have rebuilt while we queued on buildMu.
	if s := e.cached(); s != nil {
		return s, nil
	}
	start := time.Now()
	var result *core.NLQ
	for attempt := 0; attempt < 4; attempt++ {
		e0 := e.table.Epoch()
		partials, _, err := e.scan(ctx)
		if err != nil {
			return nil, err
		}
		agg, err := core.NewNLQ(len(e.cols), e.mt)
		if err != nil {
			return nil, err
		}
		for _, p := range partials {
			if err := agg.Merge(p); err != nil {
				return nil, err
			}
		}
		result = agg
		installed := false
		e.table.Sync(func(rows, epoch int64) {
			if epoch != e0 {
				return // a mutation raced the scan; retry
			}
			// epoch unchanged ⇒ nothing moved since the scan began, so
			// the partials cover the table's rows exactly.
			e.mu.Lock()
			e.agg = agg.Clone()
			e.covered = rows
			e.epoch = epoch
			e.fresh = true
			e.mu.Unlock()
			installed = true
		})
		if installed {
			break
		}
	}
	d := time.Since(start)
	e.rebuilds.Add(1)
	e.lastRebuildNanos.Store(int64(d))
	obs.SummaryRebuildSeconds.Observe(d.Seconds())
	return result, nil
}

// OnAppend folds newly appended rows into the summary. It runs under
// the table lock, so appends serialize with each other and with
// installs; a fold that fails (dimension overflow cannot happen here,
// but Update guards anyway) demotes the entry to cold.
func (e *entry) OnAppend(p int, rows []sqltypes.Row) {
	_ = p // partials are merged eagerly; partition identity is not needed
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.fresh {
		return
	}
	for _, r := range rows {
		e.covered++
		ok := true
		for i, c := range e.cols {
			f, fok := r[c].Float()
			if !fok {
				ok = false // NULL dimension: point skipped, row still covered
				break
			}
			e.x[i] = f
		}
		if !ok {
			continue
		}
		if err := e.agg.Update(e.x); err != nil {
			e.fresh, e.agg = false, nil
			return
		}
		e.incRows.Add(1)
		obs.SummaryIncremental.Inc()
	}
}

// OnPublish stamps the entry with the committed mutation's epoch. If
// the entry's row accounting disagrees with the published count (rows
// it never saw, e.g. appended before it registered mid-load), it
// demotes itself to cold rather than serve a wrong summary.
func (e *entry) OnPublish(rows, epoch int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.fresh {
		return
	}
	e.epoch = epoch
	if e.covered != rows {
		e.fresh, e.agg = false, nil
	}
}

// OnInvalidate drops the summary: the table's state diverged in a way
// incremental maintenance cannot follow (fault, rollback, truncate).
func (e *entry) OnInvalidate() {
	e.mu.Lock()
	e.fresh, e.agg = false, nil
	e.mu.Unlock()
}
