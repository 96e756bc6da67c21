package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// scatterBatch bounds how many VALUES rows ride one INSERT statement
// when fanning rows out to a shard, keeping wire frames and parser
// input bounded no matter how large a scoring result set is.
const scatterBatch = 256

// runInsert routes an INSERT's rows to their owning shards. Placement
// mirrors the storage layer's round-robin insert, lifted to the
// cluster's logical partition space: row k of a table goes to logical
// partition k mod P, and the shard owning that partition's range
// stores it. Equal ranges ⇒ equal row counts — the paper's balanced
// AMPs, which is what makes the per-shard scan times of a fan-out
// build uniform.
func (c *Coordinator) runInsert(ctx context.Context, ins *sqlparser.Insert) (*exec.Result, error) {
	if db.IsSystemTable(ins.Table) {
		return nil, fmt.Errorf("cluster: cannot INSERT into system table %q", ins.Table)
	}
	if _, err := c.local.TableSchema(ins.Table); err != nil {
		return nil, err
	}
	if ins.Query == nil {
		return c.scatterLiterals(ctx, ins)
	}
	return c.insertSelect(ctx, ins)
}

// scatterLiterals routes `INSERT ... VALUES` rows: each literal row
// joins the statement destined for its owning shard.
func (c *Coordinator) scatterLiterals(ctx context.Context, ins *sqlparser.Insert) (*exec.Result, error) {
	perShard := make([][][]sqlparser.Expr, c.shards.len())
	for _, row := range ins.Rows {
		owner := c.placeRow(ins.Table)
		perShard[owner] = append(perShard[owner], row)
	}
	return c.scatterExec(ctx, ins, perShard)
}

// insertSelect runs the SELECT through the full cluster dispatch
// (push-down or gather, whichever applies), then scatters the
// materialized result rows back out as literal VALUES — the scoring
// data flow: score on the coordinator from gathered inputs, store the
// scored rows sharded.
func (c *Coordinator) insertSelect(ctx context.Context, ins *sqlparser.Insert) (*exec.Result, error) {
	res, err := c.runSelect(ctx, ins.Query)
	if err != nil {
		return nil, err
	}
	perShard := make([][][]sqlparser.Expr, c.shards.len())
	for _, row := range res.Rows {
		lits := make([]sqlparser.Expr, len(row))
		for i, v := range row {
			// A non-finite double has no literal form a shard could parse.
			if f, _ := v.Float(); v.Type() == sqltypes.TypeDouble && (math.IsNaN(f) || math.IsInf(f, 0)) {
				return nil, fmt.Errorf("cluster: cannot route non-finite double %v as a literal", f)
			}
			lits[i] = exec.LiteralExpr(v)
		}
		owner := c.placeRow(ins.Table)
		perShard[owner] = append(perShard[owner], lits)
	}
	out, err := c.scatterExec(ctx, ins, perShard)
	if err != nil {
		return nil, err
	}
	// Charge the SELECT's execution account to the INSERT statement,
	// with the scatter fan-out grafted into the span tree.
	if res.Stats != nil && out.Stats != nil && res.Stats.Root != nil && out.Stats.Root != nil {
		out.Stats.RowsScanned = res.Stats.RowsScanned
		out.Stats.BytesRead = res.Stats.BytesRead
		out.Stats.Root.Children = append([]*exec.Span{res.Stats.Root}, out.Stats.Root.Children...)
	}
	return out, nil
}

// scatterExec sends each shard its rows as batched INSERT statements,
// printed by the statement printer, and sums the affected counts.
func (c *Coordinator) scatterExec(ctx context.Context, ins *sqlparser.Insert, perShard [][][]sqlparser.Expr) (*exec.Result, error) {
	start := time.Now()
	affected := make([]int64, len(perShard))
	span, err := c.fanout(ctx, "insert scatter", func(ctx context.Context, i int) (int64, error) {
		rows := perShard[i]
		for len(rows) > 0 {
			batch := rows
			if len(batch) > scatterBatch {
				batch = batch[:scatterBatch]
			}
			rows = rows[len(batch):]
			stmt := sqlparser.Insert{Table: ins.Table, Columns: ins.Columns, Rows: batch}
			res, err := c.shards.pool(i).Exec(ctx, stmt.String())
			if err != nil {
				return affected[i], err
			}
			affected[i] += res.Affected
		}
		return affected[i], nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, a := range affected {
		total += a
	}
	end := time.Now()
	st := &exec.Stats{
		Partitions: len(perShard), Workers: len(perShard),
		RowsEmitted: total,
		Total:       end.Sub(start),
		Root:        &exec.Span{Name: "cluster insert", Start: start, End: end, Rows: total, Children: []*exec.Span{span}},
	}
	return &exec.Result{Affected: total, Stats: st}, nil
}

// placeRow assigns the next row of a table to its owning shard,
// advancing the table's cluster-wide round-robin cursor.
func (c *Coordinator) placeRow(table string) int {
	key := strings.ToLower(table)
	c.ctrMu.Lock()
	k := c.rowCtr[key]
	c.rowCtr[key] = k + 1
	c.ctrMu.Unlock()
	return c.shards.owner(int(k % int64(c.shards.partitions())))
}
