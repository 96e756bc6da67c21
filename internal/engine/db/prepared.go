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

// defaultPlanCacheSize bounds the LRU plan cache SELECT text reads
// through.
const defaultPlanCacheSize = 256

// Prepared is a handle on statement text for repeated execution with
// `?` positional parameters. Prepare parses, checks and plans the text
// as a QueryContext miss does, so its errors surface there, and a SELECT
// over user tables leaves its plan in the plan cache. Every Execute is
// QueryContext of the text: served from the cache while the catalog
// epoch holds, planned once more after a CREATE or DROP. A Prepared is
// safe for concurrent use.
type Prepared struct {
	db        *DB
	sql       string
	numParams int
	closed    atomic.Bool
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
	p := &Prepared{db: d, sql: sql}
	switch st := stmt.(type) {
	case *sqlparser.Select:
		pl, err := d.plan(sql, st, true)
		if err != nil {
			return nil, err
		}
		p.numParams = pl.sel.NumParams()
	case *sqlparser.Insert:
		ins, err := d.expandInsert(st)
		if err != nil {
			return nil, err
		}
		if err := sema.CheckStatement(ins, exec.SemaEnv(d.env())); err != nil {
			return nil, err
		}
		p.numParams = sqlparser.CountParams(ins)
	default:
		return nil, fmt.Errorf("db: cannot prepare %s; only SELECT and INSERT are preparable", sqlparser.StatementText(stmt))
	}
	obs.PrepareSeconds.Observe(time.Since(start).Seconds())
	return p, nil
}

// SQL returns the statement text the handle executes.
func (p *Prepared) SQL() string { return p.sql }

// NumParams reports how many `?` slots the statement has.
func (p *Prepared) NumParams() int { return p.numParams }

// Execute binds args and runs the statement.
func (p *Prepared) Execute(args ...sqltypes.Value) (*exec.Result, error) {
	return p.ExecuteContext(context.Background(), args...)
}

// ExecuteContext binds args and runs the statement: QueryContext of its
// text, materialized.
func (p *Prepared) ExecuteContext(ctx context.Context, args ...sqltypes.Value) (*exec.Result, error) {
	if p.closed.Load() {
		return nil, errors.New("db: prepared statement is closed")
	}
	return p.db.QueryContext(ctx, p.sql, nil, args...)
}

// Close ends the handle: later executions fail. The plan cache keeps
// the text's plan, which other sightings of the text go on using.
func (p *Prepared) Close() error {
	p.closed.Store(true)
	return nil
}

// plan is a SELECT planned under one catalog epoch, and the executions
// it served. Text over user tables lives on in the plan cache; other
// plans are run once and dropped.
type plan struct {
	sql     string
	epoch   int64
	sel     *exec.PreparedSelect
	created time.Time
	execs   atomic.Int64
}

// planCache is the capacity-bounded LRU of plans, keyed by exact SQL
// text. Entries are invalidated lazily: a lookup whose entry was planned
// under an older catalog epoch discards it and reports a miss.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List               // front = most recently used; values are *plan
	index map[string]*list.Element // sql text → element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), index: make(map[string]*list.Element)}
}

// lookup returns the cached plan for sql when it was planned under
// epoch; otherwise nil (and counts the miss/invalidation).
func (c *planCache) lookup(sql string, epoch int64) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[sql]
	if !ok {
		obs.PlanCacheMisses.Inc()
		return nil
	}
	p := el.Value.(*plan)
	if p.epoch != epoch {
		c.lru.Remove(el)
		delete(c.index, sql)
		obs.PlanCacheInvalidations.Inc()
		obs.PlanCacheMisses.Inc()
		return nil
	}
	c.lru.MoveToFront(el)
	obs.PlanCacheHits.Inc()
	return p
}

// add inserts p, replacing any entry with the same SQL, then evicts
// past capacity. An execution still running on a displaced plan
// finishes on it.
func (c *planCache) add(p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[p.sql]; ok {
		c.lru.Remove(el)
	}
	c.index[p.sql] = c.lru.PushFront(p)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.index, back.Value.(*plan).sql)
		obs.PlanCacheEvictions.Inc()
	}
}

// entries returns the cached plans, oldest first.
func (c *planCache) entries() []*plan {
	c.mu.Lock()
	out := make([]*plan, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*plan))
	}
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].created.Before(out[j].created) })
	return out
}

// sysPrepared materializes the sys.prepared virtual table: one row per
// plan-cache entry, the plans every sighting of their text shares.
func (d *DB) sysPrepared() ([]sqltypes.Column, []sqltypes.Row, error) {
	cols := []sqltypes.Column{
		{Name: "sql_text", Type: sqltypes.TypeVarChar},
		{Name: "params", Type: sqltypes.TypeBigInt},
		{Name: "executions", Type: sqltypes.TypeBigInt},
		{Name: "stale", Type: sqltypes.TypeBool},
		{Name: "created", Type: sqltypes.TypeVarChar},
	}
	epoch := d.epoch.Load()
	plans := d.plans.entries()
	rows := make([]sqltypes.Row, 0, len(plans))
	for _, p := range plans {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewVarChar(p.sql),
			sqltypes.NewBigInt(int64(p.sel.NumParams())),
			sqltypes.NewBigInt(p.execs.Load()),
			sqltypes.NewBool(p.epoch != epoch),
			sqltypes.NewVarChar(p.created.Format(time.RFC3339Nano)),
		})
	}
	return cols, rows, nil
}
