package db

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// sysPrefix reserves a namespace for virtual system tables. Names under
// it never enter the catalog; each reference materializes a fresh
// single-partition in-memory table from live engine state, so
// `SELECT name, value FROM sys.metrics` always reflects the moment the
// query planned its scan.
const sysPrefix = "sys."

// IsSystemTable reports whether name falls under the reserved sys.
// namespace (case-insensitively) — the one test every layer uses to
// keep virtual tables out of DDL, summaries, sharding and the plan
// cache.
func IsSystemTable(name string) bool {
	return len(name) >= len(sysPrefix) && strings.EqualFold(name[:len(sysPrefix)], sysPrefix)
}

// SystemTableNames lists the built-in virtual tables served under
// sys., for shell completion and \d-style listings. Instance-specific
// registrations (RegisterSysTable) are reported by SysTableNames.
func SystemTableNames() []string {
	return []string{"sys.metrics", "sys.partitions", "sys.prepared", "sys.queries", "sys.segments", "sys.spans", "sys.summaries", "sys.tables", "sys.traces"}
}

// SysTableFunc materializes one registered virtual table's content on
// demand; it is called at scan-plan time, so every query sees live
// state. It must be safe for concurrent calls.
type SysTableFunc func() (cols []sqltypes.Column, rows []sqltypes.Row, err error)

// RegisterSysTable installs an instance-specific virtual table under
// the reserved sys. prefix (e.g. the serving layer's sys.sessions).
// Built-in names cannot be shadowed; re-registering a name replaces
// its builder.
func (d *DB) RegisterSysTable(name string, fn SysTableFunc) error {
	key := strings.ToLower(name)
	if !IsSystemTable(name) {
		return fmt.Errorf("db: system table %q must be under %q", name, sysPrefix)
	}
	for _, builtin := range SystemTableNames() {
		if key == builtin {
			return fmt.Errorf("db: cannot replace built-in system table %q", name)
		}
	}
	if fn == nil {
		return fmt.Errorf("db: nil builder for system table %q", name)
	}
	d.sysMu.Lock()
	defer d.sysMu.Unlock()
	if d.sysExt == nil {
		d.sysExt = make(map[string]SysTableFunc)
	}
	d.sysExt[key] = fn
	return nil
}

// SysTableNames lists every virtual table this instance serves:
// the built-ins plus RegisterSysTable registrations, sorted.
func (d *DB) SysTableNames() []string {
	out := append([]string(nil), SystemTableNames()...)
	d.sysMu.RLock()
	for name := range d.sysExt {
		out = append(out, name)
	}
	d.sysMu.RUnlock()
	sort.Strings(out)
	return out
}

func (d *DB) sysTable(key string) (*storage.Table, error) {
	switch key {
	case "sys.metrics":
		return d.sysMetrics()
	case "sys.queries":
		return d.sysQueries()
	case "sys.tables":
		return d.sysTables()
	case "sys.partitions":
		return d.sysPartitions()
	case "sys.segments":
		return d.sysSegments()
	case "sys.summaries":
		return d.sysSummaries()
	case "sys.traces":
		return d.sysTraces()
	case "sys.spans":
		return d.sysSpans()
	case "sys.prepared":
		cols, rows, err := d.sysPrepared()
		if err != nil {
			return nil, err
		}
		return newSysTable(key, cols, rows)
	}
	d.sysMu.RLock()
	fn := d.sysExt[key]
	d.sysMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("db: unknown system table %q", key)
	}
	cols, rows, err := fn()
	if err != nil {
		return nil, fmt.Errorf("db: materializing %s: %w", key, err)
	}
	return newSysTable(key, cols, rows)
}

// newSysTable builds the throwaway in-memory table a sys.* scan reads.
func newSysTable(name string, cols []sqltypes.Column, rows []sqltypes.Row) (*storage.Table, error) {
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	t, err := storage.NewTable(name, schema, "", 1)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return t, nil
	}
	if err := t.Insert(rows...); err != nil {
		return nil, err
	}
	return t, nil
}

// sysMetrics flattens the process-wide obs registry: one row per
// counter/gauge, plus per-bucket, _sum and _count rows for histograms
// (mirroring the Prometheus exposition the debug endpoint serves).
func (d *DB) sysMetrics() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "name", Type: sqltypes.TypeVarChar},
		{Name: "kind", Type: sqltypes.TypeVarChar},
		{Name: "value", Type: sqltypes.TypeDouble},
		{Name: "help", Type: sqltypes.TypeVarChar},
	}
	samples := obs.Default.Snapshot()
	rows := make([]sqltypes.Row, 0, len(samples))
	for _, s := range samples {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewVarChar(s.Name),
			sqltypes.NewVarChar(s.Kind),
			sqltypes.NewDouble(s.Value),
			sqltypes.NewVarChar(s.Help),
		})
	}
	return newSysTable("sys.metrics", cols, rows)
}

// sysQueries exposes the recent-query ring, newest first.
func (d *DB) sysQueries() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "id", Type: sqltypes.TypeBigInt},
		{Name: "sql_text", Type: sqltypes.TypeVarChar},
		{Name: "started", Type: sqltypes.TypeVarChar},
		{Name: "duration_ms", Type: sqltypes.TypeDouble},
		{Name: "rows_scanned", Type: sqltypes.TypeBigInt},
		{Name: "bytes_read", Type: sqltypes.TypeBigInt},
		{Name: "rows_emitted", Type: sqltypes.TypeBigInt},
		{Name: "partitions", Type: sqltypes.TypeBigInt},
		{Name: "workers", Type: sqltypes.TypeBigInt},
		{Name: "skew", Type: sqltypes.TypeDouble},
		{Name: "plan_ms", Type: sqltypes.TypeDouble},
		{Name: "scan_ms", Type: sqltypes.TypeDouble},
		{Name: "merge_ms", Type: sqltypes.TypeDouble},
		{Name: "finalize_ms", Type: sqltypes.TypeDouble},
		{Name: "slow", Type: sqltypes.TypeBool},
		{Name: "error", Type: sqltypes.TypeVarChar},
		{Name: "session_id", Type: sqltypes.TypeBigInt},
		{Name: "remote_addr", Type: sqltypes.TypeVarChar},
		{Name: "trace_id", Type: sqltypes.TypeVarChar},
	}
	recs := d.qlog.recent()
	ms := func(dur time.Duration) sqltypes.Value {
		return sqltypes.NewDouble(float64(dur) / float64(time.Millisecond))
	}
	rows := make([]sqltypes.Row, 0, len(recs))
	for _, r := range recs {
		st := r.Stats
		if st == nil {
			st = &exec.Stats{}
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewBigInt(r.ID),
			sqltypes.NewVarChar(r.SQL),
			sqltypes.NewVarChar(r.Start.Format(time.RFC3339Nano)),
			ms(r.Duration),
			sqltypes.NewBigInt(st.RowsScanned),
			sqltypes.NewBigInt(st.BytesRead),
			sqltypes.NewBigInt(st.RowsEmitted),
			sqltypes.NewBigInt(int64(st.Partitions)),
			sqltypes.NewBigInt(int64(st.Workers)),
			sqltypes.NewDouble(st.Skew()),
			ms(st.Plan),
			ms(st.Scan),
			ms(st.Merge),
			ms(st.Finalize),
			sqltypes.NewBool(r.Slow),
			sqltypes.NewVarChar(r.Err),
			sqltypes.NewBigInt(r.SessionID),
			sqltypes.NewVarChar(r.RemoteAddr),
			sqltypes.NewVarChar(r.TraceID),
		})
	}
	return newSysTable("sys.queries", cols, rows)
}

// sysTraces exposes the tail-sampling trace store, one row per
// retained trace, newest first.
func (d *DB) sysTraces() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "trace_id", Type: sqltypes.TypeVarChar},
		{Name: "started", Type: sqltypes.TypeVarChar},
		{Name: "duration_ms", Type: sqltypes.TypeDouble},
		{Name: "sql_text", Type: sqltypes.TypeVarChar},
		{Name: "session_id", Type: sqltypes.TypeBigInt},
		{Name: "class", Type: sqltypes.TypeVarChar},
		{Name: "slow", Type: sqltypes.TypeBool},
		{Name: "error", Type: sqltypes.TypeVarChar},
		{Name: "spans", Type: sqltypes.TypeBigInt},
	}
	recs := d.traces.Snapshot()
	rows := make([]sqltypes.Row, 0, len(recs))
	for _, r := range recs {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewVarChar(r.TraceID),
			sqltypes.NewVarChar(r.Start.Format(time.RFC3339Nano)),
			sqltypes.NewDouble(float64(r.Duration) / float64(time.Millisecond)),
			sqltypes.NewVarChar(r.SQL),
			sqltypes.NewBigInt(r.SessionID),
			sqltypes.NewVarChar(r.Class),
			sqltypes.NewBool(r.Slow),
			sqltypes.NewVarChar(r.Err),
			sqltypes.NewBigInt(int64(len(r.Spans))),
		})
	}
	return newSysTable("sys.traces", cols, rows)
}

// sysSpans flattens every retained trace's spans, one row per span;
// parent_span_id reconstructs the tree.
func (d *DB) sysSpans() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "trace_id", Type: sqltypes.TypeVarChar},
		{Name: "span_id", Type: sqltypes.TypeVarChar},
		{Name: "parent_span_id", Type: sqltypes.TypeVarChar},
		{Name: "name", Type: sqltypes.TypeVarChar},
		{Name: "started", Type: sqltypes.TypeVarChar},
		{Name: "duration_ms", Type: sqltypes.TypeDouble},
		{Name: "rows_processed", Type: sqltypes.TypeBigInt},
		{Name: "bytes", Type: sqltypes.TypeBigInt},
		{Name: "source", Type: sqltypes.TypeVarChar},
	}
	var rows []sqltypes.Row
	for _, r := range d.traces.Snapshot() {
		for _, sp := range r.Spans {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewVarChar(r.TraceID),
				sqltypes.NewVarChar(sp.SpanID),
				sqltypes.NewVarChar(sp.ParentID),
				sqltypes.NewVarChar(sp.Name),
				sqltypes.NewVarChar(sp.Start.Format(time.RFC3339Nano)),
				sqltypes.NewDouble(float64(sp.Duration) / float64(time.Millisecond)),
				sqltypes.NewBigInt(sp.Rows),
				sqltypes.NewBigInt(sp.Bytes),
				sqltypes.NewVarChar(sp.Source),
			})
		}
	}
	return newSysTable("sys.spans", cols, rows)
}

// sysTables summarizes the catalog: partition and row counts and the
// on-disk footprint of every user table.
func (d *DB) sysTables() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "name", Type: sqltypes.TypeVarChar},
		{Name: "partitions", Type: sqltypes.TypeBigInt},
		{Name: "num_rows", Type: sqltypes.TypeBigInt},
		{Name: "on_disk", Type: sqltypes.TypeBool},
		{Name: "size_bytes", Type: sqltypes.TypeBigInt},
	}
	var rows []sqltypes.Row
	for _, t := range d.userTables() {
		size, err := t.SizeBytes()
		if err != nil {
			size = 0
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewVarChar(t.Name()),
			sqltypes.NewBigInt(int64(t.Partitions())),
			sqltypes.NewBigInt(t.NumRows()),
			sqltypes.NewBool(t.OnDisk()),
			sqltypes.NewBigInt(size),
		})
	}
	return newSysTable("sys.tables", cols, rows)
}

// sysSummaries exposes the incremental n/L/Q summary catalog: one row
// per cached entry with its validity state and hit/rebuild accounting.
func (d *DB) sysSummaries() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "table_name", Type: sqltypes.TypeVarChar},
		{Name: "columns", Type: sqltypes.TypeVarChar},
		{Name: "matrix_type", Type: sqltypes.TypeVarChar},
		{Name: "state", Type: sqltypes.TypeVarChar},
		{Name: "n", Type: sqltypes.TypeDouble},
		{Name: "covered_rows", Type: sqltypes.TypeBigInt},
		{Name: "epoch", Type: sqltypes.TypeBigInt},
		{Name: "hits", Type: sqltypes.TypeBigInt},
		{Name: "misses", Type: sqltypes.TypeBigInt},
		{Name: "incremental_rows", Type: sqltypes.TypeBigInt},
		{Name: "rebuilds", Type: sqltypes.TypeBigInt},
		{Name: "last_rebuild_ms", Type: sqltypes.TypeDouble},
	}
	infos := d.Summaries()
	rows := make([]sqltypes.Row, 0, len(infos))
	for _, inf := range infos {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewVarChar(inf.Table),
			sqltypes.NewVarChar(strings.Join(inf.Columns, ",")),
			sqltypes.NewVarChar(inf.Matrix.String()),
			sqltypes.NewVarChar(inf.State),
			sqltypes.NewDouble(inf.N),
			sqltypes.NewBigInt(inf.Covered),
			sqltypes.NewBigInt(inf.Epoch),
			sqltypes.NewBigInt(inf.Hits),
			sqltypes.NewBigInt(inf.Misses),
			sqltypes.NewBigInt(inf.IncRows),
			sqltypes.NewBigInt(inf.Rebuilds),
			sqltypes.NewDouble(float64(inf.LastRebuild) / float64(time.Millisecond)),
		})
	}
	return newSysTable("sys.summaries", cols, rows)
}

// sysSegments reports the columnar segment cache, one row per on-disk
// partition: how many rows of the row log the sibling .seg file is a
// snapshot of (0 with no file until a block scan first derives it, -1
// for a file of a reattached table that nothing has verified yet), its
// size, and whether it is fresh — behind after every write until the
// next block scan rebuilds it. In-memory tables synthesize blocks from
// resident rows and report no segments.
func (d *DB) sysSegments() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "table_name", Type: sqltypes.TypeVarChar},
		{Name: "partition", Type: sqltypes.TypeBigInt},
		{Name: "seg_rows", Type: sqltypes.TypeBigInt},
		{Name: "seg_bytes", Type: sqltypes.TypeBigInt},
		{Name: "fresh", Type: sqltypes.TypeBool},
	}
	var rows []sqltypes.Row
	for _, t := range d.userTables() {
		counts := t.PartitionRowCounts()
		for _, si := range t.Segments() {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewVarChar(t.Name()),
				sqltypes.NewBigInt(int64(si.Partition)),
				sqltypes.NewBigInt(si.Rows),
				sqltypes.NewBigInt(si.Bytes),
				sqltypes.NewBool(si.Rows >= 0 && si.Rows == counts[si.Partition]),
			})
		}
	}
	return newSysTable("sys.segments", cols, rows)
}

// sysPartitions breaks each user table down to per-partition row
// counts, the raw material behind Stats.Skew.
func (d *DB) sysPartitions() (*storage.Table, error) {
	cols := []sqltypes.Column{
		{Name: "table_name", Type: sqltypes.TypeVarChar},
		{Name: "partition", Type: sqltypes.TypeBigInt},
		{Name: "num_rows", Type: sqltypes.TypeBigInt},
	}
	var rows []sqltypes.Row
	for _, t := range d.userTables() {
		for p, n := range t.PartitionRowCounts() {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewVarChar(t.Name()),
				sqltypes.NewBigInt(int64(p)),
				sqltypes.NewBigInt(n),
			})
		}
	}
	return newSysTable("sys.partitions", cols, rows)
}

// userTables snapshots the catalog sorted by name.
func (d *DB) userTables() []*storage.Table {
	d.mu.RLock()
	out := make([]*storage.Table, 0, len(d.tables))
	for _, t := range d.tables {
		out = append(out, t)
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
