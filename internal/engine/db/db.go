// Package db is the embedded database facade: it owns the catalog,
// the function registries and statement dispatch. It plays the role of
// the Teradata DBMS in the reproduction — the thing TWM connects to,
// creates UDFs in, and sends generated SQL to.
package db

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sema"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/summary"
	"repro/internal/engine/trace"
	"repro/internal/engine/udf"
)

// Options configure a database instance.
type Options struct {
	// Dir is the directory for table partition files. Empty means all
	// tables are in-memory (tests); non-empty matches the paper's
	// uncached on-disk scans.
	Dir string
	// Partitions is the per-table partition count; it models the
	// parallel Teradata threads (the paper used 20). Zero selects
	// storage.DefaultPartitions.
	Partitions int
	// Workers caps a scan's workers below the partition count; <= 0
	// sets no cap. Under the caps a scan runs one worker per 2048-row
	// chunk it reads, the calling goroutine first, so a table of as
	// many chunks as partitions gets one worker per partition.
	Workers int
	// SlowQuery is the duration at or above which a statement is
	// flagged slow in sys.queries and counted in
	// engine_slow_queries_total. Zero selects DefaultSlowQuery.
	SlowQuery time.Duration
	// TraceSampleN keeps 1-in-N healthy traces in the tail-sampling
	// trace store (error and slow traces are always kept). Zero selects
	// trace.DefaultSampleN; 1 keeps every trace.
	TraceSampleN int
	// TraceCap bounds each retention class of the trace store. Zero
	// selects trace.DefaultClassCap.
	TraceCap int
	// Logger receives the database's structured log lines (today: the
	// slow-query log). Nil selects slog.Default at Open time.
	Logger *slog.Logger
}

// DB is an embedded database instance.
type DB struct {
	opts   Options
	funcs  *expr.Registry
	aggs   *udf.Registry
	mu     sync.RWMutex
	tables map[string]*storage.Table
	views  map[string]*sqlparser.Select
	// clog is the catalog log DDL appends to, opened O_APPEND once per
	// DB, and clogSize its length; both are guarded by mu (catalog.go).
	clog     *os.File
	clogSize int64

	qlog queryLog

	// epoch is the catalog epoch: bumped by every CREATE/DROP of a
	// table or view. A cached plan records the epoch it was built under
	// and is discarded at lookup once it moves, so a plan never serves a
	// statement that arrives after the schema it was planned for changed.
	epoch atomic.Int64

	// plans is the LRU plan cache SELECT text reads through, prepared or
	// not, and the rows of the sys.prepared virtual table.
	plans *planCache

	// sums is the n/L/Q summary catalog: model builders go through it so
	// a warm rebuild reads at most the rows appended since the last.
	sums *summary.Catalog

	// sys holds the virtual tables served under sys.: the built-ins and
	// RegisterSysTable registrations (e.g. the serving layer's
	// sys.sessions).
	sysMu sync.RWMutex
	sys   map[string]SysTableFunc

	// traces is the instance's tail-sampling trace store; every
	// finished statement is observed into it from noteQuery.
	traces *trace.Store
	logger *slog.Logger
}

// Open creates a fresh database over an empty (or memory-only)
// location. It never reads an existing catalog, and its first DDL
// writes its own over one; use OpenDir to reattach a directory a
// previous process populated.
func Open(opts Options) *DB {
	if opts.Partitions <= 0 {
		opts.Partitions = storage.DefaultPartitions
	}
	if opts.SlowQuery <= 0 {
		opts.SlowQuery = DefaultSlowQuery
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	d := &DB{
		opts:   opts,
		funcs:  expr.NewRegistry(),
		aggs:   udf.NewRegistry(),
		tables: make(map[string]*storage.Table),
		views:  make(map[string]*sqlparser.Select),
		plans:  newPlanCache(defaultPlanCacheSize),
		sums:   summary.NewCatalog(opts.Workers),
		traces: trace.NewStore(opts.TraceSampleN, opts.TraceCap),
		logger: logger,
		sys:    make(map[string]SysTableFunc, len(sysBuiltins)),
	}
	for name, build := range sysBuiltins {
		d.sys[name] = func() ([]sqltypes.Column, []sqltypes.Row, error) { return build(d) }
	}
	return d
}

// OpenDir creates a database over a directory, reattaching the tables
// and views its catalog records, written by a previous process.
func OpenDir(opts Options) (*DB, error) {
	d := Open(opts)
	if err := d.loadCatalog(); err != nil {
		return nil, err
	}
	return d, nil
}

// Partitions returns the configured per-table partition count.
func (d *DB) Partitions() int { return d.opts.Partitions }

// Scalars exposes the scalar function registry, where scalar UDFs are
// installed (the engine equivalent of CREATE FUNCTION).
func (d *DB) Scalars() *expr.Registry { return d.funcs }

// Aggregates exposes the aggregate UDF registry.
func (d *DB) Aggregates() *udf.Registry { return d.aggs }

// Table implements exec.Catalog. Names under the reserved "sys."
// prefix resolve to virtual system tables materialized on demand; the
// interception happens before d.mu is taken because synthesizing
// sys.tables itself reads the catalog under the same lock.
func (d *DB) Table(name string) (*storage.Table, error) {
	key := strings.ToLower(name)
	if IsSystemTable(name) {
		return d.sysTable(key)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[key]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t, nil
}

// TableSchema implements sema.Catalog: the schema-only view the
// semantic analyzer resolves column references against.
func (d *DB) TableSchema(name string) (*sqltypes.Schema, error) {
	t, err := d.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// HasTable reports whether the table exists.
func (d *DB) HasTable(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.tables[strings.ToLower(name)]
	return ok
}

// TableNames returns all table names (lower-cased), for the shell.
func (d *DB) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for k := range d.tables {
		out = append(out, k)
	}
	return out
}

// CreateTable creates a table from a schema directly (bypassing SQL);
// bulk loaders and generators use this.
func (d *DB) CreateTable(name string, schema *sqltypes.Schema) (*storage.Table, error) {
	key := strings.ToLower(name)
	if IsSystemTable(name) {
		return nil, fmt.Errorf("db: %q is reserved for system tables", name)
	}
	if !tableNameOK(key) {
		return nil, fmt.Errorf("db: table name %q is not an identifier", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[key]; exists {
		return nil, fmt.Errorf("db: table %q already exists", name)
	}
	t, err := storage.NewTable(key, schema, d.opts.Dir, d.opts.Partitions)
	if err != nil {
		return nil, err
	}
	if err := d.logDDL(catalogRecord{Op: "create_table", Table: tableRecord(key, t)}); err != nil {
		return nil, err
	}
	d.tables[key] = t
	d.epoch.Add(1)
	return t, nil
}

// DropTable removes a table and its files.
func (d *DB) DropTable(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := d.tables[key]
	if !ok {
		return fmt.Errorf("db: table %q does not exist", name)
	}
	if err := d.logDDL(catalogRecord{Op: "drop_table", Name: key}); err != nil {
		return err
	}
	delete(d.tables, key)
	d.epoch.Add(1)
	d.sums.DropTable(key)
	return t.Drop()
}

// Epoch returns the current catalog epoch (see DB.epoch).
func (d *DB) Epoch() int64 { return d.epoch.Load() }

// env is the environment statements run in. It offers the block source,
// which exec takes wherever a table has segments; block and row scans
// agree bit for bit, so the choice changes speed, never an answer.
func (d *DB) env() *exec.Env {
	return &exec.Env{Catalog: d, Funcs: d.funcs, Aggs: d.aggs, Workers: d.opts.Workers, Columnar: true}
}

// Exec parses and runs one SQL statement.
func (d *DB) Exec(sql string) (*exec.Result, error) {
	return d.ExecContext(context.Background(), sql)
}

// ExecContext parses and runs one SQL statement; cancelling ctx stops
// in-flight partition scans between rows.
func (d *DB) ExecContext(ctx context.Context, sql string) (*exec.Result, error) {
	return d.QueryContext(ctx, sql, nil)
}

// QueryContext is the one dispatch for statement text, behind Exec,
// QueryStream, Prepared.Execute and the network server alike; args bind
// the statement's `?` slots in order. A SELECT's rows go to sink when
// one is given (the Result then carries schema and stats only) and into
// the Result otherwise; statements that produce no rows ignore the
// sink. SELECT text reads through the LRU plan cache: a hit — a plan
// built under the current catalog epoch — skips parse, sema, view
// expansion and compilation entirely and binds args to the cached plan.
// A miss is parsed and planned by runSelect; every other statement kind
// has args bound into its parsed form and goes to run.
func (d *DB) QueryContext(ctx context.Context, sql string, sink exec.RowSink, args ...sqltypes.Value) (*exec.Result, error) {
	if p := d.plans.lookup(sql, d.epoch.Load()); p != nil {
		return d.runPlan(ctx, time.Now(), p, sink, args)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*sqlparser.Select); ok {
		return d.runSelect(ctx, sql, sel, sink, true, args)
	}
	if stmt, err = exec.BindStatementArgs(stmt, args); err != nil {
		return d.finish(ctx, sql, time.Now(), nil, err)
	}
	return d.run(ctx, sql, stmt)
}

// runSelect plans sel, executes it once with args and records it in the
// query ring: the path of every SELECT no cached plan serves. A
// statement that arrived as text leaves its plan in the cache (see
// plan). The plan runs without a staleness check — it was bound to the
// catalog a moment ago, which is all a statement ever promised.
func (d *DB) runSelect(ctx context.Context, sql string, sel *sqlparser.Select, sink exec.RowSink, text bool, args []sqltypes.Value) (*exec.Result, error) {
	start := time.Now()
	p, err := d.plan(sql, sel, text)
	if err != nil {
		return d.finish(ctx, sql, start, nil, err)
	}
	return d.runPlan(ctx, start, p, sink, args)
}

// runPlan executes a planned SELECT once, counts the execution on the
// plan and records the statement.
func (d *DB) runPlan(ctx context.Context, start time.Time, p *plan, sink exec.RowSink, args []sqltypes.Value) (*exec.Result, error) {
	res, err := p.sel.Run(ctx, args, sink)
	if err == nil {
		p.execs.Add(1)
	}
	return d.finish(ctx, p.sql, start, res, err)
}

// plan view-expands sel and plans it under the current catalog epoch;
// when text is set and sel reads user tables only, the plan is cached
// for the next sighting of sql, whatever its `?` slots will be bound
// to. A FROM entry under the reserved sys. prefix names a system table,
// materialized fresh for every statement: such a plan holds one
// snapshot, good for one execution and never cached. Pre-parsed
// statements (Run, ExecScript) are planned, run and dropped.
func (d *DB) plan(sql string, sel *sqlparser.Select, text bool) (*plan, error) {
	epoch := d.epoch.Load()
	expanded, err := d.expandViews(sel, 0)
	if err != nil {
		return nil, err
	}
	env := d.env()
	for _, ref := range expanded.From {
		if IsSystemTable(ref.Name) {
			text = false
		}
	}
	ps, err := exec.PrepareSelect(expanded, env)
	if err != nil {
		return nil, err
	}
	p := &plan{sql: sql, epoch: epoch, sel: ps, created: time.Now()}
	if text {
		d.plans.add(p)
	}
	return p, nil
}

// finish records a completed statement in the recent-query ring — with
// the partial stats of one that failed mid-scan, which the executor
// hands back in an otherwise empty Result — and keeps that Result from
// the caller. Every dispatch path ends here, once per statement.
func (d *DB) finish(ctx context.Context, sql string, start time.Time, res *exec.Result, err error) (*exec.Result, error) {
	var st *exec.Stats
	if res != nil {
		st = res.Stats
	}
	d.noteQuery(ctx, sql, start, st, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ExecScript runs a semicolon-separated statement sequence, returning
// the last result.
func (d *DB) ExecScript(sql string) (*exec.Result, error) {
	return d.ExecScriptContext(context.Background(), sql)
}

// ExecScriptContext is ExecScript under a context; each statement is
// dispatched (and recorded in the query ring) individually, and
// cancelling ctx stops between and within statements.
func (d *DB) ExecScriptContext(ctx context.Context, sql string) (*exec.Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var res *exec.Result
	for _, s := range stmts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res, err = d.RunContext(ctx, s); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Run executes a parsed statement.
func (d *DB) Run(stmt sqlparser.Statement) (*exec.Result, error) {
	return d.RunContext(context.Background(), stmt)
}

// RunContext executes a parsed statement under a context.
func (d *DB) RunContext(ctx context.Context, stmt sqlparser.Statement) (*exec.Result, error) {
	return d.run(ctx, sqlparser.StatementText(stmt), stmt)
}

// run dispatches a parsed statement and records it in the recent-query
// ring.
func (d *DB) run(ctx context.Context, sql string, stmt sqlparser.Statement) (*exec.Result, error) {
	if sel, ok := stmt.(*sqlparser.Select); ok {
		return d.runSelect(ctx, sql, sel, nil, false, nil)
	}
	start := time.Now()
	res, err := d.runContext(ctx, stmt)
	return d.finish(ctx, sql, start, res, err)
}

func (d *DB) runContext(ctx context.Context, stmt sqlparser.Statement) (*exec.Result, error) {
	switch st := stmt.(type) {
	case *sqlparser.Insert:
		ins, err := d.expandInsert(st)
		if err != nil {
			return nil, err
		}
		return exec.Insert(ctx, ins, d.env())
	case *sqlparser.CreateTable:
		return d.runCreate(st)
	case *sqlparser.DropTable:
		return d.runDrop(st)
	case *sqlparser.CreateView:
		if err := d.CreateView(st.Name, st.Query); err != nil {
			return nil, err
		}
		return &exec.Result{}, nil
	case *sqlparser.DropView:
		if st.IfExists && !d.HasView(st.Name) {
			return &exec.Result{}, nil
		}
		if err := d.DropView(st.Name); err != nil {
			return nil, err
		}
		return &exec.Result{}, nil
	default:
		return nil, fmt.Errorf("db: unsupported statement %T", stmt)
	}
}

// expandInsert returns st with the views of its SELECT expanded.
func (d *DB) expandInsert(st *sqlparser.Insert) (*sqlparser.Insert, error) {
	if st.Query == nil {
		return st, nil
	}
	expanded, err := d.expandViews(st.Query, 0)
	if err != nil {
		return nil, err
	}
	clone := *st
	clone.Query = expanded
	return &clone, nil
}

// QueryStream runs a SELECT and streams its rows to sink; used for
// scoring large data sets without materializing them.
func (d *DB) QueryStream(sql string, sink exec.RowSink) (*sqltypes.Schema, error) {
	schema, _, err := d.QueryStreamContext(context.Background(), sql, sink)
	return schema, err
}

// QueryStreamContext is QueryStream under a context; cancelling ctx
// stops the partition scans between rows. It also returns the scan's
// execution statistics. Each partition worker delivers its rows in
// bursts of up to 64, and a failed or cancelled scan drops the rows of
// its unfinished bursts (see exec.PreparedSelect.Run).
func (d *DB) QueryStreamContext(ctx context.Context, sql string, sink exec.RowSink) (*sqltypes.Schema, *exec.Stats, error) {
	res, err := d.QueryContext(ctx, sql, sink)
	if err != nil {
		return nil, nil, err
	}
	return res.Schema, res.Stats, nil
}

func (d *DB) runCreate(st *sqlparser.CreateTable) (*exec.Result, error) {
	if st.IfNotExists && d.HasTable(st.Name) {
		return &exec.Result{}, nil
	}
	// Same env constructor as the executor's internal checks, so the
	// catalog/UDF view sema sees cannot drift from execution's.
	if err := sema.CheckStatement(st, exec.SemaEnv(d.env())); err != nil {
		return nil, err
	}
	cols := make([]sqltypes.Column, len(st.Columns))
	for i, c := range st.Columns {
		t, err := sqltypes.ParseType(c.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = sqltypes.Column{Name: c.Name, Type: t}
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if _, err := d.CreateTable(st.Name, schema); err != nil {
		return nil, err
	}
	return &exec.Result{}, nil
}

func (d *DB) runDrop(st *sqlparser.DropTable) (*exec.Result, error) {
	if st.IfExists && !d.HasTable(st.Name) {
		return &exec.Result{}, nil
	}
	if err := d.DropTable(st.Name); err != nil {
		return nil, err
	}
	return &exec.Result{}, nil
}

// Close closes the catalog log; on-disk tables persist until dropped.
// A later DDL reopens the log from a fresh snapshot, as after Open.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clog == nil {
		return nil
	}
	err := d.clog.Close()
	d.clog = nil
	return err
}
