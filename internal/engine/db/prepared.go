package db

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/sema"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// ErrPlanStale reports that the catalog epoch moved (a table or view
// was created or dropped) after the statement was prepared; the plan's
// captured table handles may no longer match the catalog, so execution
// is refused rather than risking a mismatched schema. Re-prepare to
// continue.
var ErrPlanStale = errors.New("db: prepared plan is stale (catalog changed since PREPARE)")

// defaultPlanCacheSize bounds the LRU plan cache SELECT text reads
// through.
const defaultPlanCacheSize = 256

// Prepared is a statement planned once for repeated execution: parsed,
// sema-checked, view-expanded and (SELECTs of every shape) compiled to
// closures at prepare time. Execute binds `?` parameter values and
// runs. A Prepared is safe for concurrent use; executions
// that race a CREATE/DROP either use the pre-DDL plan consistently or
// fail with ErrPlanStale.
type Prepared struct {
	db        *DB
	id        int64
	sql       string
	epoch     int64 // catalog epoch the plan was built under
	numParams int
	created   time.Time
	cached    bool // owned by the plan cache, not an explicit Prepare

	sel *exec.PreparedSelect // non-nil for SELECT
	ins *sqlparser.Insert    // non-nil for INSERT (views pre-expanded)

	execs  atomic.Int64
	closed atomic.Bool
}

// Prepare parses, checks and plans one statement for repeated
// execution with `?` positional parameters.
func (d *DB) Prepare(sql string) (*Prepared, error) {
	return d.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare under a context.
func (d *DB) PrepareContext(ctx context.Context, sql string) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := d.prepareParsed(sql, stmt)
	if err != nil {
		return nil, err
	}
	obs.PrepareSeconds.Observe(time.Since(start).Seconds())
	return p, nil
}

// prepareParsed builds the plan for an already-parsed statement. The
// epoch is loaded before planning: if a DDL lands while we plan, the
// recorded epoch is already behind and the first Execute fails stale
// instead of running a half-old plan.
func (d *DB) prepareParsed(sql string, stmt sqlparser.Statement) (*Prepared, error) {
	p := &Prepared{sql: sql, epoch: d.epoch.Load()}
	switch st := stmt.(type) {
	case *sqlparser.Select:
		ps, sysRef, err := d.planSelect(st)
		if err != nil {
			return nil, err
		}
		// A plan over a system table would replay one snapshot forever (a
		// prepared "SELECT * FROM sys.metrics" that never moves).
		if sysRef != "" {
			return nil, fmt.Errorf("db: cannot prepare %q: system tables are materialized per statement", sysRef)
		}
		p.sel = ps
		p.numParams = ps.NumParams()
	case *sqlparser.Insert:
		ins := st
		if st.Query != nil {
			expanded, err := d.expandViews(st.Query, 0)
			if err != nil {
				return nil, err
			}
			clone := *st
			clone.Query = expanded
			ins = &clone
		}
		if err := sema.CheckStatement(ins, exec.SemaEnv(d.env())); err != nil {
			return nil, err
		}
		p.ins = ins
		p.numParams = sqlparser.CountParams(ins)
	default:
		return nil, fmt.Errorf("db: cannot prepare %s; only SELECT and INSERT are preparable", sqlparser.StatementText(stmt))
	}
	return d.register(p), nil
}

// register gives a planned statement its identity and lists it in
// sys.prepared until it is closed.
func (d *DB) register(p *Prepared) *Prepared {
	p.db, p.created = d, time.Now()
	d.prepMu.Lock()
	d.prepID++
	p.id = d.prepID
	d.preps[p.id] = p
	d.prepMu.Unlock()
	return p
}

// SQL returns the statement text the plan was prepared from.
func (p *Prepared) SQL() string { return p.sql }

// NumParams reports how many `?` slots the statement has.
func (p *Prepared) NumParams() int { return p.numParams }

// ready gates every execution: closed plans refuse to run, and a
// catalog epoch that moved since PREPARE surfaces as ErrPlanStale. A
// cache-owned plan that was invalidated concurrently also reports
// stale (the cache closes entries it discards).
func (p *Prepared) ready() error {
	if p.closed.Load() {
		if p.cached {
			return ErrPlanStale
		}
		return fmt.Errorf("db: prepared statement is closed")
	}
	if p.db.epoch.Load() != p.epoch {
		return ErrPlanStale
	}
	return nil
}

// Execute binds args and runs the prepared statement.
func (p *Prepared) Execute(args ...sqltypes.Value) (*exec.Result, error) {
	return p.ExecuteContext(context.Background(), args...)
}

// ExecuteContext binds args and runs the prepared statement; like
// every other dispatch path it is recorded in the recent-query ring.
func (p *Prepared) ExecuteContext(ctx context.Context, args ...sqltypes.Value) (*exec.Result, error) {
	return p.QueryContext(ctx, nil, args...)
}

// ExecuteStreamContext binds args and streams a prepared SELECT's
// result rows to sink.
func (p *Prepared) ExecuteStreamContext(ctx context.Context, sink exec.RowSink, args ...sqltypes.Value) (*sqltypes.Schema, *exec.Stats, error) {
	if p.sel == nil {
		return nil, nil, fmt.Errorf("db: ExecuteStream requires a prepared SELECT")
	}
	res, err := p.QueryContext(ctx, sink, args...)
	if err != nil {
		return nil, nil, err
	}
	return res.Schema, res.Stats, nil
}

// QueryContext is the one execution entry, the prepared counterpart of
// DB.QueryContext with the same sink contract: it gates on ready, binds
// args, runs the plan and records the statement.
func (p *Prepared) QueryContext(ctx context.Context, sink exec.RowSink, args ...sqltypes.Value) (*exec.Result, error) {
	if err := p.ready(); err != nil {
		return nil, err
	}
	start := time.Now()
	var res *exec.Result
	var err error
	if p.sel != nil {
		res, err = executeSelect(ctx, p.sel, args, sink)
	} else {
		res, err = p.executeInsert(ctx, args)
	}
	if err == nil {
		p.execs.Add(1)
	}
	return p.db.finish(ctx, p.sql, start, res, err)
}

func (p *Prepared) executeInsert(ctx context.Context, args []sqltypes.Value) (*exec.Result, error) {
	bound, err := bindArgs(p.ins, p.numParams, args)
	if err != nil {
		return nil, err
	}
	return exec.Insert(ctx, bound.(*sqlparser.Insert), p.db.env())
}

// bindArgs binds args to the numParams `?` slots of a statement that is
// not a SELECT, refusing a count that does not match them.
func bindArgs(stmt sqlparser.Statement, numParams int, args []sqltypes.Value) (sqlparser.Statement, error) {
	if len(args) != numParams {
		return nil, fmt.Errorf("db: statement has %d parameter(s), got %d argument(s)", numParams, len(args))
	}
	return exec.BindStatementArgs(stmt, args)
}

// Close releases the plan and removes it from sys.prepared. Closing
// twice is a no-op; in-flight executions finish on the pre-close plan.
func (p *Prepared) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.db.prepMu.Lock()
	delete(p.db.preps, p.id)
	p.db.prepMu.Unlock()
	return nil
}

// planCache is the capacity-bounded LRU of cache-owned Prepared plans,
// keyed by exact SQL text. Entries are invalidated lazily: a lookup
// whose entry was planned under an older catalog epoch discards it and
// reports a miss.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List               // front = most recently used; values are *Prepared
	index map[string]*list.Element // sql text → element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), index: make(map[string]*list.Element)}
}

// lookup returns the cached plan for sql when it was planned under
// epoch; otherwise nil (and counts the miss/invalidation).
func (c *planCache) lookup(sql string, epoch int64) *Prepared {
	c.mu.Lock()
	el, ok := c.index[sql]
	if !ok {
		c.mu.Unlock()
		obs.PlanCacheMisses.Inc()
		return nil
	}
	p := el.Value.(*Prepared)
	if p.epoch != epoch {
		c.lru.Remove(el)
		delete(c.index, sql)
		c.mu.Unlock()
		p.Close()
		obs.PlanCacheInvalidations.Inc()
		obs.PlanCacheMisses.Inc()
		return nil
	}
	c.lru.MoveToFront(el)
	c.mu.Unlock()
	obs.PlanCacheHits.Inc()
	return p
}

// add inserts p (replacing any entry with the same SQL), then evicts
// past capacity. Displaced plans are closed outside the lock.
func (c *planCache) add(p *Prepared) {
	var displaced []*Prepared
	c.mu.Lock()
	if el, ok := c.index[p.sql]; ok {
		displaced = append(displaced, el.Value.(*Prepared))
		c.lru.Remove(el)
		delete(c.index, p.sql)
	}
	c.index[p.sql] = c.lru.PushFront(p)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		bp := back.Value.(*Prepared)
		c.lru.Remove(back)
		delete(c.index, bp.sql)
		displaced = append(displaced, bp)
		obs.PlanCacheEvictions.Inc()
	}
	c.mu.Unlock()
	for _, dp := range displaced {
		dp.Close()
	}
}

// sysPrepared materializes the sys.prepared virtual table: one row per
// live prepared statement, explicit and plan-cache-owned alike.
func (d *DB) sysPrepared() ([]sqltypes.Column, []sqltypes.Row, error) {
	cols := []sqltypes.Column{
		{Name: "id", Type: sqltypes.TypeBigInt},
		{Name: "sql_text", Type: sqltypes.TypeVarChar},
		{Name: "params", Type: sqltypes.TypeBigInt},
		{Name: "executions", Type: sqltypes.TypeBigInt},
		{Name: "cached", Type: sqltypes.TypeBool},
		{Name: "stale", Type: sqltypes.TypeBool},
		{Name: "created", Type: sqltypes.TypeVarChar},
	}
	d.prepMu.Lock()
	preps := make([]*Prepared, 0, len(d.preps))
	for _, p := range d.preps {
		preps = append(preps, p)
	}
	d.prepMu.Unlock()
	sort.Slice(preps, func(i, j int) bool { return preps[i].id < preps[j].id })
	epoch := d.epoch.Load()
	rows := make([]sqltypes.Row, 0, len(preps))
	for _, p := range preps {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewBigInt(p.id),
			sqltypes.NewVarChar(p.sql),
			sqltypes.NewBigInt(int64(p.numParams)),
			sqltypes.NewBigInt(p.execs.Load()),
			sqltypes.NewBool(p.cached),
			sqltypes.NewBool(p.epoch != epoch),
			sqltypes.NewVarChar(p.created.Format(time.RFC3339Nano)),
		})
	}
	return cols, rows, nil
}
