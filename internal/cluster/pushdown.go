package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/pkg/client"
)

// mergeKind says how one output column's per-shard partials combine on
// the coordinator.
type mergeKind int

const (
	// mergeSum adds non-NULL partials (COUNT and SUM — COUNT partials
	// never come back NULL, SUM over an empty shard does).
	mergeSum mergeKind = iota
	// mergeMin / mergeMax keep the extreme non-NULL partial.
	mergeMin
	mergeMax
	// mergeAvg divides a pushed-down SUM partial by its paired COUNT
	// partial — AVG itself is not mergeable after finalization, which
	// is exactly the paper's reason the n/L/Q UDF returns sufficient
	// statistics instead of finished moments.
	mergeAvg
	// mergeNLQ unpacks each shard's packed n/L/Q string and merges them
	// additively in shard order — the 4-phase UDF protocol's merge
	// phase, run across the wire instead of across goroutines.
	mergeNLQ
	// mergeConcat appends row slices in shard order (non-aggregate
	// projections).
	mergeConcat
)

// pushItem maps one ORIGINAL select item to its pushed-down partial
// columns and merge rule.
type pushItem struct {
	kind mergeKind
	name string // final output column name (single-node naming rules)
	lo   int    // first pushed column ordinal; mergeAvg also uses lo+1
}

// pushPlan is a classified push-down statement: the SQL every shard
// runs, and how the coordinator folds the partials.
type pushPlan struct {
	sql     string
	items   []pushItem // nil for a concat plan
	nPushed int
}

// mergeableAgg maps pushable aggregate names to their merge kind.
// Anything else — nlq_block's blocked layout, nlq_hist's buckets,
// DISTINCT aggregates — takes the gather path, which is always
// correct, just not push-down fast.
var mergeableAgg = map[string]mergeKind{
	"count":    mergeSum,
	"sum":      mergeSum,
	"min":      mergeMin,
	"max":      mergeMax,
	"avg":      mergeAvg,
	"nlq_list": mergeNLQ,
	"nlq_str":  mergeNLQ,
}

// planPushdown classifies a select. Push-down needs a single user
// table and none of the operators whose semantics span shards (GROUP
// BY, HAVING, ORDER BY, LIMIT, star expansion): then either every item
// is a bare mergeable aggregate call (partial aggregation) or no item
// aggregates at all (row concatenation). WHERE pushes verbatim either
// way — filters commute with sharding.
func (c *Coordinator) planPushdown(sel *sqlparser.Select) (*pushPlan, bool) {
	if len(sel.From) != 1 || db.IsSystemTable(sel.From[0].Name) {
		return nil, false
	}
	if len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || sel.Limit != nil {
		return nil, false
	}
	aggNames := c.local.Aggregates().Names()
	allAgg := true
	for _, item := range sel.Items {
		if item.Star {
			return nil, false
		}
		fc, ok := item.Expr.(*sqlparser.FuncCall)
		if !ok || fc.Distinct {
			allAgg = false
			continue
		}
		if _, ok := mergeableAgg[strings.ToLower(fc.Name)]; !ok {
			allAgg = false
			continue
		}
		// The aggregate's arguments must be plain row expressions —
		// nested aggregation is not pushable (and not legal SQL).
		for _, arg := range fc.Args {
			if expr.ContainsAggregate(arg, aggNames) {
				allAgg = false
			}
		}
	}
	if !expr.IsAggregateQuery(sel, aggNames) {
		// Pure projection: every shard runs the original statement and
		// the coordinator concatenates rows in shard order.
		return &pushPlan{sql: sqlparser.StatementText(sel)}, true
	}
	if !allAgg {
		return nil, false
	}

	// Partial aggregation: rewrite each item into its pushed partial
	// columns with positional aliases p0, p1, ... so the merge loop
	// addresses them by ordinal, never by name.
	pushed := &sqlparser.Select{From: sel.From, Where: sel.Where}
	plan := &pushPlan{}
	for i, item := range sel.Items {
		fc := item.Expr.(*sqlparser.FuncCall)
		pi := pushItem{name: sqlparser.OutputName(item, i), lo: plan.nPushed}
		switch kind := mergeableAgg[strings.ToLower(fc.Name)]; kind {
		case mergeAvg:
			// AVG(e) → SUM(e), COUNT(e); the coordinator divides.
			pushed.Items = append(pushed.Items,
				sqlparser.SelectItem{Expr: &sqlparser.FuncCall{Name: "sum", Args: fc.Args}, Alias: fmt.Sprintf("p%d", plan.nPushed)},
				sqlparser.SelectItem{Expr: &sqlparser.FuncCall{Name: "count", Args: fc.Args}, Alias: fmt.Sprintf("p%d", plan.nPushed+1)},
			)
			pi.kind = mergeAvg
			plan.nPushed += 2
		default:
			pushed.Items = append(pushed.Items,
				sqlparser.SelectItem{Expr: fc, Alias: fmt.Sprintf("p%d", plan.nPushed)})
			pi.kind = kind
			plan.nPushed++
		}
		plan.items = append(plan.items, pi)
	}
	plan.sql = pushed.String()
	return plan, true
}

// runPushdown executes a classified plan: fan the pushed statement out
// to every shard, then fold the partials.
func (c *Coordinator) runPushdown(ctx context.Context, sel *sqlparser.Select, plan *pushPlan) (*exec.Result, error) {
	start := time.Now()
	n := c.shards.len()
	partials := make([]*client.Rows, n)
	fanSpan, err := c.fanout(ctx, "pushdown fanout", func(ctx context.Context, i int) (int64, error) {
		rows, err := c.shards.pool(i).Query(ctx, plan.sql)
		if err != nil {
			return 0, err
		}
		partials[i] = rows
		return int64(len(rows.Rows)), nil
	})
	if err != nil {
		return nil, err
	}

	mergeStart := time.Now()
	var res *exec.Result
	if plan.items == nil {
		res, err = mergeConcatRows(sel, partials)
	} else {
		res, err = mergeAggRows(plan, partials)
	}
	if err != nil {
		return nil, err
	}
	end := time.Now()

	st := clusterStats(partials, n)
	st.RowsEmitted = int64(len(res.Rows))
	st.Scan = fanSpan.Duration()
	st.Merge = end.Sub(mergeStart)
	st.Total = end.Sub(start)
	st.Root = &exec.Span{
		Name:  "cluster pushdown",
		Start: start,
		End:   end,
		Rows:  st.RowsEmitted,
		Children: []*exec.Span{
			fanSpan,
			{Name: "merge partials", Start: mergeStart, End: end, Rows: st.RowsEmitted},
		},
	}
	res.Stats = st
	return res, nil
}

// clusterStats folds the shards' own executor statistics (riding each
// reply's stats JSON) into the coordinator statement's account: total
// rows scanned and bytes read fleet-wide, with per-shard scan counts in
// PartitionRows — EXPLAIN ANALYZE's skew display, one slot per shard.
func clusterStats(partials []*client.Rows, n int) *exec.Stats {
	st := &exec.Stats{Partitions: n, Workers: n, PartitionRows: make([]int64, n)}
	for i, p := range partials {
		if p == nil || p.StatsJSON == "" {
			continue
		}
		var shard exec.Stats
		if json.Unmarshal([]byte(p.StatsJSON), &shard) != nil {
			continue
		}
		st.RowsScanned += shard.RowsScanned
		st.BytesRead += shard.BytesRead
		st.PartitionRows[i] = shard.RowsScanned
	}
	return st
}

// mergeConcatRows appends shard rows in shard order under the first
// shard's schema (every shard runs the same statement over the same
// DDL, so schemas agree).
func mergeConcatRows(sel *sqlparser.Select, partials []*client.Rows) (*exec.Result, error) {
	var schema *sqltypes.Schema
	var rows []sqltypes.Row
	for _, p := range partials {
		if p == nil {
			continue
		}
		if schema == nil {
			schema = p.Schema
		}
		rows = append(rows, p.Rows...)
		if len(p.Rows) > 0 {
			partialsMerged.Inc()
		}
	}
	if schema == nil {
		return nil, fmt.Errorf("cluster: no shard returned a schema")
	}
	return &exec.Result{Schema: schema, Rows: rows}, nil
}

// mergeAggRows folds each shard's single partial row into the final
// aggregate row, column by column, in shard order.
func mergeAggRows(plan *pushPlan, partials []*client.Rows) (*exec.Result, error) {
	var first *client.Rows
	shardRows := make([]sqltypes.Row, 0, len(partials))
	for _, p := range partials {
		if p == nil {
			continue
		}
		if first == nil {
			first = p
		}
		if len(p.Rows) != 1 {
			return nil, fmt.Errorf("cluster: shard partial has %d rows, want 1", len(p.Rows))
		}
		if len(p.Rows[0]) != plan.nPushed {
			return nil, fmt.Errorf("cluster: shard partial has %d values, want %d", len(p.Rows[0]), plan.nPushed)
		}
		shardRows = append(shardRows, p.Rows[0])
	}
	if first == nil {
		return nil, fmt.Errorf("cluster: no shard returned a partial")
	}

	out := make(sqltypes.Row, len(plan.items))
	cols := make([]sqltypes.Column, len(plan.items))
	for i, item := range plan.items {
		v, err := mergeColumn(item, shardRows)
		if err != nil {
			return nil, err
		}
		out[i] = v
		typ := v.Type()
		if typ == sqltypes.TypeNull {
			// NULL result (e.g. SUM over an empty table): name the
			// column after the pushed partial's type so the shape still
			// matches single-node output.
			typ = first.Schema.Columns[item.lo].Type
			if item.kind == mergeAvg {
				typ = sqltypes.TypeDouble
			}
		}
		cols[i] = sqltypes.Column{Name: item.name, Type: typ}
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &exec.Result{Schema: schema, Rows: []sqltypes.Row{out}}, nil
}

// mergeColumn folds one output column across the shards' partial rows
// (already in shard order).
func mergeColumn(item pushItem, shardRows []sqltypes.Row) (sqltypes.Value, error) {
	switch item.kind {
	case mergeSum:
		return mergeSums(item.lo, shardRows), nil
	case mergeMin, mergeMax:
		keepLess := item.kind == mergeMin
		out := sqltypes.Null
		for _, r := range shardRows {
			v := r[item.lo]
			if v.IsNull() {
				continue
			}
			if out.IsNull() {
				out = v
				continue
			}
			partialsMerged.Inc()
			if cmp := sqltypes.Compare(v, out); (keepLess && cmp < 0) || (!keepLess && cmp > 0) {
				out = v
			}
		}
		return out, nil
	case mergeAvg:
		sum, cnt := 0.0, int64(0)
		for _, r := range shardRows {
			cv := r[item.lo+1]
			if cv.Int() == 0 {
				continue
			}
			f, err := r[item.lo].AsFloat()
			if err != nil {
				return sqltypes.Null, fmt.Errorf("cluster: AVG partial: %w", err)
			}
			if cnt > 0 {
				partialsMerged.Inc()
			}
			sum += f
			cnt += cv.Int()
		}
		if cnt == 0 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewDouble(sum / float64(cnt)), nil
	case mergeNLQ:
		var merged *core.NLQ
		for _, r := range shardRows {
			v := r[item.lo]
			if v.IsNull() || v.Str() == "" {
				continue
			}
			nlq, err := core.Unpack(v.Str())
			if err != nil {
				return sqltypes.Null, fmt.Errorf("cluster: n/L/Q partial: %w", err)
			}
			if merged == nil {
				merged = nlq
				continue
			}
			if err := merged.Merge(nlq); err != nil {
				return sqltypes.Null, err
			}
			partialsMerged.Inc()
		}
		if merged == nil {
			return sqltypes.Null, nil
		}
		return sqltypes.NewVarChar(merged.Pack()), nil
	}
	return sqltypes.Null, fmt.Errorf("cluster: unknown merge kind %d", item.kind)
}

// mergeSums adds non-NULL partials, preserving integer-ness when every
// partial is integral (COUNT, SUM over BIGINT).
func mergeSums(col int, shardRows []sqltypes.Row) sqltypes.Value {
	allInt := true
	var isum int64
	var fsum float64
	seen := false
	for _, r := range shardRows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		if seen {
			partialsMerged.Inc()
		}
		seen = true
		if v.Type() == sqltypes.TypeBigInt {
			isum += v.Int()
		} else {
			allInt = false
		}
		f, _ := v.Float()
		fsum += f
	}
	if !seen {
		return sqltypes.Null
	}
	if allInt {
		return sqltypes.NewBigInt(isum)
	}
	return sqltypes.NewDouble(fsum)
}
