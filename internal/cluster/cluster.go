// Package cluster is the engine's distributed scale-out layer: a
// coordinator that fronts N twmd shard nodes behind the same wire
// protocol surface a single node serves. The paper's numbers came from
// a 4-node shared-nothing Teradata system; this package reproduces
// that architecture on top of the pieces PRs 4-8 built — the versioned
// wire protocol, the pooled retrying client, additively mergeable
// n/L/Q partials and the epoch-stamped summary cache.
//
// The design follows the paper's (and MADlib's/Bismarck's) split:
//
//   - Rows live on the shards, round-robin-assigned over a cluster-wide
//     logical partition space of which each shard owns one contiguous
//     range (the ShardMap). Rows never move after insert.
//   - Model builds push the scan down: the coordinator sends each shard
//     the same aggregate statement (or a Summary frame that
//     reuses the shard's summary-cache read path) and merges the
//     finalized partials exactly as the in-process merge phase does —
//     n/L/Q merge additively, COUNT/SUM sum, MIN/MAX compare, AVG is
//     rewritten to SUM+COUNT and finished on the coordinator.
//   - Everything the push-down classifier cannot prove mergeable —
//     joins, ORDER BY/LIMIT, GROUP BY, DISTINCT — takes the general
//     path: the referenced tables' rows are gathered from the shards
//     into in-memory partition tables and the unmodified statement
//     runs on the coordinator's own executor, so correctness never
//     depends on the classifier being clever.
//   - Scoring INSERT…SELECT runs its SELECT through the same dispatch,
//     then fans the result rows back out to their owning shards.
//
// DDL broadcasts to every shard and mirrors into the coordinator's
// local catalog (which also serves sys.* views and holds the shard
// map's sys.shards table). Partial failure surfaces as the typed
// shard_unavailable wire error; repeated transport failures mark a
// shard down — failing fast instead of hammering it — until the
// background prober's ping revives it.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/trace"
	"repro/pkg/client"
)

// Config tunes a Coordinator.
type Config struct {
	// Shards are the shard nodes' wire-protocol addresses, in shard-id
	// order. Required, at least one.
	Shards []string
	// Partitions is the cluster-wide logical partition count rows
	// round-robin over (rounded up to a multiple of len(Shards));
	// zero selects 4 logical partitions per shard.
	Partitions int
	// User is reported in each shard's sys.sessions. Default
	// "coordinator".
	User string
	// PoolSize bounds each per-shard sub-pool. Default 4.
	PoolSize int
	// ProbeInterval is how often the background prober pings
	// marked-down shards. Default 500ms.
	ProbeInterval time.Duration
}

// Coordinator fans statements out across a shard fleet. It implements
// the serving layer's Engine interface, so `twmd -coordinator` serves
// it with the exact session/admission/tracing machinery a single node
// gets.
type Coordinator struct {
	local  *db.DB // catalog mirror, sys.* views, statement observation
	shards *ShardMap
	cfg    Config

	// ctrMu guards rowCtr, the per-table round-robin cursor that
	// mirrors the storage layer's insert placement across the cluster's
	// logical partition space.
	ctrMu  sync.Mutex
	rowCtr map[string]int64

	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
}

// New builds a coordinator over the shard fleet, mirroring its catalog
// into local (an empty engine instance that also serves the sys.*
// views). The sys.shards virtual table is registered on local, and the
// health prober starts immediately.
func New(local *db.DB, cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: Config.Shards required")
	}
	if cfg.User == "" {
		cfg.User = "coordinator"
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4 * len(cfg.Shards)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	m, err := newShardMap(cfg.Shards, cfg.Partitions, func(addr string) (*client.Pool, error) {
		return client.Open(client.Config{Addr: addr, User: cfg.User, PoolSize: cfg.PoolSize})
	})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{local: local, shards: m, cfg: cfg, rowCtr: make(map[string]int64)}
	if err := local.RegisterSysTable("sys.shards", m.sysShards); err != nil {
		m.close()
		return nil, err
	}
	pctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.probeWG.Add(1)
	go c.probeLoop(pctx)
	return c, nil
}

// probeLoop pings marked-down shards until Close.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.shards.probe(ctx, c.cfg.ProbeInterval)
		}
	}
}

// Close stops the prober and releases every shard pool. The local
// catalog instance stays open (its owner closes it).
func (c *Coordinator) Close() error {
	c.probeCancel()
	c.probeWG.Wait()
	c.shards.close()
	return nil
}

// Shards reports the fleet size.
func (c *Coordinator) Shards() int { return c.shards.len() }

// --- server.Engine surface ---

// RegisterSysTable delegates to the local catalog instance, which
// serves every sys.* scan (the serving layer registers sys.sessions
// here).
func (c *Coordinator) RegisterSysTable(name string, fn db.SysTableFunc) error {
	return c.local.RegisterSysTable(name, fn)
}

// Traces is the coordinator-side trace store; shard-side spans live in
// each shard's own store under the same trace IDs (the sub-pools
// propagate the statement's trace context in the wire header).
func (c *Coordinator) Traces() *trace.Store { return c.local.Traces() }

// ExecScriptContext runs a semicolon-separated script statement by
// statement, returning the last result.
func (c *Coordinator) ExecScriptContext(ctx context.Context, sql string) (*exec.Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *exec.Result
	for _, stmt := range stmts {
		if last, err = c.runContext(ctx, stmt); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// QueryContext parses one statement and runs it through the cluster
// dispatch. The coordinator merges whole partials rather than streaming
// rows, so sink goes unused and the rows come back in the Result —
// result sets crossing the coordinator are small by design (aggregates
// and scored rows, never base-table scans). It re-plans every statement,
// because shard health and the push-down shape can change between
// executions. args bind the statement's `?` slots as literals, so the
// bound statement is the one the text with its values inlined would be.
func (c *Coordinator) QueryContext(ctx context.Context, sql string, _ exec.RowSink, args ...sqltypes.Value) (*exec.Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if stmt, err = exec.BindStatementArgs(stmt, args); err != nil {
		return nil, err
	}
	return c.runContext(ctx, stmt)
}

// runContext dispatches one parsed statement; statements reach it as
// text through QueryContext or ExecScriptContext.
func (c *Coordinator) runContext(ctx context.Context, stmt sqlparser.Statement) (*exec.Result, error) {
	switch st := stmt.(type) {
	case *sqlparser.Select:
		if localOnly(st) {
			// Pure sys.* (or FROM-less) selects never touch the fleet;
			// the local instance serves and observes them.
			return c.local.RunContext(ctx, stmt)
		}
		return c.observed(ctx, stmt, func() (*exec.Result, error) { return c.runSelect(ctx, st) })
	case *sqlparser.Insert:
		return c.observed(ctx, stmt, func() (*exec.Result, error) { return c.runInsert(ctx, st) })
	case *sqlparser.CreateTable, *sqlparser.DropTable:
		return c.runDDL(ctx, stmt)
	case *sqlparser.CreateView, *sqlparser.DropView:
		return nil, errors.New("cluster: views are not supported in coordinator mode")
	default:
		return nil, fmt.Errorf("cluster: unsupported statement type %T in coordinator mode", stmt)
	}
}

// observed runs fn and records the statement — with its hand-built
// coordinator→shard span tree — in the local instance's query ring and
// trace store, exactly as an in-process statement would be.
func (c *Coordinator) observed(ctx context.Context, stmt sqlparser.Statement, fn func() (*exec.Result, error)) (*exec.Result, error) {
	start := time.Now()
	res, err := fn()
	var st *exec.Stats
	if res != nil {
		st = res.Stats
	}
	c.local.ObserveStatement(ctx, sqlparser.StatementText(stmt), start, st, err)
	return res, err
}

// runDDL mirrors a CREATE/DROP into the local catalog first (cheap
// validation, and the mirror is what sema and the gather path bind
// against), then broadcasts it to every shard. DDL is not atomic
// across the fleet: a mid-broadcast failure leaves shards that already
// applied it — rerun the statement (IF NOT EXISTS / IF EXISTS make
// that idempotent) once the fleet is healthy.
func (c *Coordinator) runDDL(ctx context.Context, stmt sqlparser.Statement) (*exec.Result, error) {
	res, err := c.local.RunContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	sql := sqlparser.StatementText(stmt)
	if _, err := c.fanout(ctx, "ddl broadcast", func(ctx context.Context, i int) (int64, error) {
		_, err := c.shards.pool(i).Exec(ctx, sql)
		return 0, err
	}); err != nil {
		return nil, fmt.Errorf("cluster: DDL applied on coordinator but failed on the fleet (rerun when healthy): %w", err)
	}
	// A dropped table's round-robin cursor must not leak into a
	// recreated table of the same name.
	if dt, ok := stmt.(*sqlparser.DropTable); ok {
		c.ctrMu.Lock()
		delete(c.rowCtr, strings.ToLower(dt.Name))
		c.ctrMu.Unlock()
	}
	return res, nil
}

// SummaryNLQ fans the Summary frame out to every shard —
// each serves its local cache-first n/L/Q read path — and merges the
// partials additively. hit reports whether every shard answered from
// its cache (zero scans fleet-wide).
func (c *Coordinator) SummaryNLQ(ctx context.Context, table string, cols []string, mt core.MatrixType) (*core.NLQ, bool, error) {
	if db.IsSystemTable(table) {
		return nil, false, fmt.Errorf("cluster: no summaries over system table %q", table)
	}
	n := c.shards.len()
	partials := make([]*core.NLQ, n)
	hits := make([]bool, n)
	if _, err := c.fanout(ctx, "summary fanout", func(ctx context.Context, i int) (int64, error) {
		s, hit, err := c.shards.pool(i).Summary(ctx, table, cols, mt)
		if err != nil {
			return 0, err
		}
		partials[i], hits[i] = s, hit
		return 0, nil
	}); err != nil {
		return nil, false, err
	}
	var merged *core.NLQ
	hit := true
	for i := 0; i < n; i++ {
		hit = hit && hits[i]
		if partials[i] == nil {
			continue
		}
		if merged == nil {
			merged = partials[i].Clone()
			continue
		}
		if err := merged.Merge(partials[i]); err != nil {
			return nil, false, err
		}
		partialsMerged.Inc()
	}
	if merged == nil {
		// Every shard's slice is empty; serve the empty-table summary
		// from the (equally empty) local mirror so the shape matches
		// the single-node answer.
		return c.local.SummaryNLQ(ctx, table, cols, mt)
	}
	return merged, hit, nil
}

// localOnly reports whether a select touches no shard data: constant
// selects and pure sys.* reads.
func localOnly(sel *sqlparser.Select) bool {
	if len(sel.From) == 0 {
		return true
	}
	for _, ref := range sel.From {
		if !db.IsSystemTable(ref.Name) {
			return false
		}
	}
	return true
}

// runSelect dispatches a shard-touching SELECT: push-down when the
// classifier proves the shape mergeable, the general gather path
// otherwise.
func (c *Coordinator) runSelect(ctx context.Context, sel *sqlparser.Select) (*exec.Result, error) {
	if plan, ok := c.planPushdown(sel); ok {
		res, err := c.runPushdown(ctx, sel, plan)
		if err == nil {
			pushdownStatements.Inc()
		}
		return res, err
	}
	return c.runGather(ctx, sel)
}
