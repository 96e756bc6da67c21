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

// sysBuiltins are the built-in virtual tables' builders. Open serves
// them from the same map as RegisterSysTable entries.
var sysBuiltins = map[string]func(*DB) ([]sqltypes.Column, []sqltypes.Row, error){
	"sys.metrics":    (*DB).sysMetrics,
	"sys.partitions": (*DB).sysPartitions,
	"sys.prepared":   (*DB).sysPrepared,
	"sys.queries":    (*DB).sysQueries,
	"sys.segments":   (*DB).sysSegments,
	"sys.spans":      (*DB).sysSpans,
	"sys.summaries":  (*DB).sysSummaries,
	"sys.tables":     (*DB).sysTables,
	"sys.traces":     (*DB).sysTraces,
}

// SystemTableNames lists the built-in virtual tables served under
// sys., sorted, for shell completion and \d-style listings.
// Instance-specific registrations (RegisterSysTable) are reported by
// SysTableNames.
func SystemTableNames() []string {
	out := make([]string, 0, len(sysBuiltins))
	for name := range sysBuiltins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
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
	if _, builtin := sysBuiltins[key]; builtin {
		return fmt.Errorf("db: cannot replace built-in system table %q", name)
	}
	if fn == nil {
		return fmt.Errorf("db: nil builder for system table %q", name)
	}
	d.sysMu.Lock()
	defer d.sysMu.Unlock()
	d.sys[key] = fn
	return nil
}

// SysTableNames lists every virtual table this instance serves:
// the built-ins plus RegisterSysTable registrations, sorted.
func (d *DB) SysTableNames() []string {
	d.sysMu.RLock()
	out := make([]string, 0, len(d.sys))
	for name := range d.sys {
		out = append(out, name)
	}
	d.sysMu.RUnlock()
	sort.Strings(out)
	return out
}

// sysTable materializes the virtual table key into the throwaway
// single-partition in-memory table a sys.* scan reads.
func (d *DB) sysTable(key string) (*storage.Table, error) {
	d.sysMu.RLock()
	fn := d.sys[key]
	d.sysMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("db: unknown system table %q", key)
	}
	cols, rows, err := fn()
	if err != nil {
		return nil, fmt.Errorf("db: materializing %s: %w", key, err)
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	t, err := storage.NewTable(key, schema, "", 1)
	if err == nil && len(rows) > 0 {
		err = t.Insert(rows...)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// sysMetrics flattens the process-wide obs registry: one row per
// counter/gauge, plus per-bucket, _sum and _count rows for histograms
// (mirroring the Prometheus exposition the debug endpoint serves).
func (d *DB) sysMetrics() ([]sqltypes.Column, []sqltypes.Row, error) {
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
	return cols, rows, nil
}

// sysQueries exposes the recent-query ring, newest first.
func (d *DB) sysQueries() ([]sqltypes.Column, []sqltypes.Row, error) {
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
	return cols, rows, nil
}

// sysTraces exposes the tail-sampling trace store, one row per
// retained trace, newest first.
func (d *DB) sysTraces() ([]sqltypes.Column, []sqltypes.Row, error) {
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
	return cols, rows, nil
}

// sysSpans flattens every retained trace's spans, one row per span;
// parent_span_id reconstructs the tree.
func (d *DB) sysSpans() ([]sqltypes.Column, []sqltypes.Row, error) {
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
	return cols, rows, nil
}

// sysTables summarizes the catalog: partition and row counts and the
// on-disk footprint of every user table.
func (d *DB) sysTables() ([]sqltypes.Column, []sqltypes.Row, error) {
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
		for _, si := range t.Segments() {
			size += si.Bytes
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewVarChar(t.Name()),
			sqltypes.NewBigInt(int64(t.Partitions())),
			sqltypes.NewBigInt(t.NumRows()),
			sqltypes.NewBool(t.OnDisk()),
			sqltypes.NewBigInt(size),
		})
	}
	return cols, rows, nil
}

// sysSummaries exposes the n/L/Q summary catalog: one row per entry
// with its state (summary.Info), the rows it has read, the table epoch
// it read them at, and its hit/rebuild accounting; incremental_rows
// counts the appended rows warm reads resumed over.
func (d *DB) sysSummaries() ([]sqltypes.Column, []sqltypes.Row, error) {
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
	return cols, rows, nil
}

// sysSegments reports where each on-disk partition keeps its rows: how
// many are sealed in column chunks and the bytes of the `.seg` file
// holding them, and how many follow in the row log, fewer than one
// chunk's worth after every commit. In-memory tables have no chunks and
// report none.
func (d *DB) sysSegments() ([]sqltypes.Column, []sqltypes.Row, error) {
	cols := []sqltypes.Column{
		{Name: "table_name", Type: sqltypes.TypeVarChar},
		{Name: "partition", Type: sqltypes.TypeBigInt},
		{Name: "sealed_rows", Type: sqltypes.TypeBigInt},
		{Name: "sealed_bytes", Type: sqltypes.TypeBigInt},
		{Name: "tail_rows", Type: sqltypes.TypeBigInt},
	}
	var rows []sqltypes.Row
	for _, t := range d.userTables() {
		for _, si := range t.Segments() {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewVarChar(t.Name()),
				sqltypes.NewBigInt(int64(si.Partition)),
				sqltypes.NewBigInt(si.Rows),
				sqltypes.NewBigInt(si.Bytes),
				sqltypes.NewBigInt(si.TailRows),
			})
		}
	}
	return cols, rows, nil
}

// sysPartitions breaks each user table down to per-partition row
// counts, the raw material behind Stats.Skew.
func (d *DB) sysPartitions() ([]sqltypes.Column, []sqltypes.Row, error) {
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
	return cols, rows, nil
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
