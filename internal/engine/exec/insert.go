package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// Insert executes INSERT..VALUES or INSERT..SELECT. For INSERT..SELECT
// the subquery's scan observes ctx cancellation and its execution
// stats are attached to the result — when the subquery fails part-way,
// to a Result that carries nothing else.
func Insert(ctx context.Context, ins *sqlparser.Insert, env *Env) (*Result, error) {
	if err := analyze(ins, env); err != nil {
		return nil, err
	}
	t, err := env.Catalog.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Map the statement's column list (or the full schema) to table
	// ordinals; unnamed columns receive NULL.
	var colIdx []int
	if len(ins.Columns) == 0 {
		colIdx = make([]int, schema.Len())
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		colIdx = make([]int, len(ins.Columns))
		for i, name := range ins.Columns {
			idx := schema.Index(name)
			if idx < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", ins.Table, name)
			}
			colIdx[i] = idx
		}
	}

	// fillRow spreads one row of values over the statement's columns of
	// row, a table-width row whose other columns are NULL.
	fillRow := func(row, vals sqltypes.Row) error {
		if len(vals) != len(colIdx) {
			return fmt.Errorf("exec: INSERT expects %d values, got %d", len(colIdx), len(vals))
		}
		for i, idx := range colIdx {
			row[idx] = vals[i]
		}
		return nil
	}

	if ins.Query == nil {
		rows := make([]sqltypes.Row, 0, len(ins.Rows))
		vals := make(sqltypes.Row, len(colIdx))
		for _, exprRow := range ins.Rows {
			if len(exprRow) != len(colIdx) {
				return nil, fmt.Errorf("exec: INSERT expects %d values, got %d", len(colIdx), len(exprRow))
			}
			for i, e := range exprRow {
				ev, err := expr.Compile(e, nil, env.Funcs)
				if err != nil {
					return nil, err
				}
				v, err := ev.Eval(nil)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			row := make(sqltypes.Row, schema.Len())
			if err := fillRow(row, vals); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		if err := t.Insert(rows...); err != nil {
			return nil, err
		}
		return &Result{Affected: int64(len(rows))}, nil
	}

	// INSERT .. SELECT streams the subquery into one bulk load, which
	// holds the target's write lock (lock order: target write, then source
	// reads) until it commits every row or, on any error or cancellation,
	// aborts and leaves the target untouched. A subquery that reads the
	// target cannot scan under that lock: its rows — the target's
	// pre-statement snapshot — are collected and inserted after the scan.
	p, err := PrepareSelect(ins.Query, env)
	if err != nil {
		return nil, err
	}
	var collected []sqltypes.Row
	add := func(row sqltypes.Row) error { collected = append(collected, row.Clone()); return nil }
	commit := func() error { return t.Insert(collected...) }
	if !p.reads(t) {
		bl, err := t.NewBulkLoader()
		if err != nil {
			return nil, err
		}
		defer bl.Abort() // a no-op once Close has committed
		add, commit = bl.Add, bl.Close
	}
	// Each batch of the partition workers' rows is spread, row by row,
	// into one table-width row behind the statement's mutex, taken once
	// per batch: the bulk loader lets its caller reuse the row it was
	// handed, so only what retains a row (a table in memory, the
	// collected snapshot) allocates one.
	var mu sync.Mutex
	row := make(sqltypes.Row, schema.Len())
	sink := func(rows []sqltypes.Row) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		for i, r := range rows {
			if err := fillRow(row, r); err != nil {
				return i, err
			}
			if err := add(row); err != nil {
				return i, err
			}
		}
		return len(rows), nil
	}
	res, err := p.run(ctx, nil, sink)
	if err == nil {
		err = commit()
	}
	if err != nil {
		return &Result{Stats: res.Stats}, err
	}
	return &Result{Affected: res.Stats.RowsEmitted, Stats: res.Stats}, nil
}
