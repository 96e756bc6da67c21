package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// gatherCatalog overlays temporary in-memory tables — filled with rows
// pulled from the shards — on the coordinator's local instance, which
// keeps serving sys.* views and the (empty) catalog mirror underneath.
type gatherCatalog struct {
	local  exec.Catalog
	tables map[string]*storage.Table
}

func (g *gatherCatalog) Table(name string) (*storage.Table, error) {
	if t, ok := g.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return g.local.Table(name)
}

// runGather is the general execution path: every statement the
// push-down classifier cannot prove mergeable — joins, GROUP BY,
// ORDER BY/LIMIT, DISTINCT aggregates, blocked/histogram UDFs, scoring
// SELECTs — runs here. The referenced tables' rows are gathered from
// the shards into in-memory partition tables and the UNMODIFIED
// statement runs on the coordinator's own executor, so cluster-mode
// semantics are single-node semantics by construction. It trades
// network volume for generality, exactly the paper's warning about
// moving data out of the DBMS — which is why model builds go through
// push-down and only the long tail lands here.
func (c *Coordinator) runGather(ctx context.Context, sel *sqlparser.Select) (*exec.Result, error) {
	start := time.Now()
	cat, gatherSpan, err := c.gatherTables(ctx, sel.From)
	if err != nil {
		return nil, err
	}
	env := &exec.Env{Catalog: cat, Funcs: c.local.Scalars(), Aggs: c.local.Aggregates()}
	res, err := exec.Select(ctx, sel, env)
	if err != nil {
		return nil, err
	}
	end := time.Now()

	// Wrap the local execution's span tree under a root that also shows
	// the gather fan-out, and charge the gather time to the statement.
	st := res.Stats
	if st == nil {
		st = &exec.Stats{}
		res.Stats = st
	}
	children := []*exec.Span{gatherSpan}
	if st.Root != nil {
		children = append(children, st.Root)
	}
	st.Total = end.Sub(start)
	st.Root = &exec.Span{Name: "cluster gather", Start: start, End: end, Rows: st.RowsEmitted, Children: children}
	return res, nil
}

// gatherTables pulls every user table referenced in FROM from the
// shards into fresh in-memory tables (one partition per shard, filled
// in shard order). sys.* references stay with the local instance.
func (c *Coordinator) gatherTables(ctx context.Context, refs []sqlparser.TableRef) (*gatherCatalog, *exec.Span, error) {
	cat := &gatherCatalog{local: c.local, tables: make(map[string]*storage.Table)}
	span := &exec.Span{Name: "gather tables", Start: time.Now()}
	for _, ref := range refs {
		key := strings.ToLower(ref.Name)
		if db.IsSystemTable(key) || cat.tables[key] != nil {
			continue
		}
		schema, err := c.local.TableSchema(ref.Name)
		if err != nil {
			return nil, nil, err
		}
		t, err := storage.NewTable(key, schema, "", c.shards.len())
		if err != nil {
			return nil, nil, err
		}
		rows, tableSpan, err := c.gatherRowsFrom(ctx, key)
		if err != nil {
			return nil, nil, err
		}
		total := int64(0)
		for _, shardRows := range rows {
			if err := t.Insert(shardRows...); err != nil {
				return nil, nil, err
			}
			total += int64(len(shardRows))
		}
		gatherRows.Add(total)
		span.Rows += total
		span.Children = append(span.Children, tableSpan)
		cat.tables[key] = t
	}
	span.End = time.Now()
	return cat, span, nil
}

// gatherRowsFrom fetches one table's full rows from every shard,
// returned per shard in shard order.
func (c *Coordinator) gatherRowsFrom(ctx context.Context, table string) ([][]sqltypes.Row, *exec.Span, error) {
	perShard := make([][]sqltypes.Row, c.shards.len())
	sql := fmt.Sprintf("SELECT * FROM %s", table)
	span, err := c.fanout(ctx, "gather "+table, func(ctx context.Context, i int) (int64, error) {
		rows, err := c.shards.pool(i).Query(ctx, sql)
		if err != nil {
			return 0, err
		}
		perShard[i] = rows.Rows
		return int64(len(rows.Rows)), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return perShard, span, nil
}
