package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// Env bundles the registries a query executes against.
type Env struct {
	Catalog Catalog
	Funcs   *expr.Registry // scalar functions and scalar UDFs
	Aggs    *udf.Registry  // standard aggregates and aggregate UDFs
	// Workers caps a scan's workers below the partition count; <= 0
	// sets no cap. Under the caps a scan runs one worker per
	// storage.ChunkRows rows it reads (scanWidth), so a table of less
	// than a chunk is scanned on the calling goroutine alone.
	Workers int
	// Columnar offers eligible scans of on-disk tables the block source:
	// the sealed chunks' lanes as blocks, for block kernels and vector
	// programs, and the row log's tail as rows, as every scan reads it.
	// What blocks cannot serve, and every scan with Columnar off, reads
	// rows: the chunks decoded to rows, then the tail, with identical
	// results. The db planner always sets it.
	Columnar bool
}

// Select plans sel and executes it once, materializing the result
// with ORDER BY and LIMIT applied: the entry point for callers that
// keep no plan (the cluster gather path). Cancelling ctx (nil is treated as background) stops the
// partition scans between rows. As with Run, a failure after the scan
// began returns a Result carrying only the partial Stats.
func Select(ctx context.Context, sel *sqlparser.Select, env *Env) (*Result, error) {
	p, err := PrepareSelect(sel, env)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, nil, nil)
}

// beginSelectObs starts the root span and the engine-level query
// gauges/histograms for one SELECT execution; the returned finish
// function completes them.
func beginSelectObs(st *Stats) func() {
	root := st.ensureRoot()
	obs.ActiveQueries.Inc()
	return func() {
		root.finish()
		root.Rows = st.RowsEmitted
		st.Total = root.Duration()
		obs.ActiveQueries.Dec()
		obs.QuerySeconds.Observe(st.Total.Seconds())
		obs.RowsEmitted.Add(st.RowsEmitted)
		if st.Partitions > 0 {
			obs.PlanSeconds.Observe(st.Plan.Seconds())
			obs.ScanSeconds.Observe(st.Scan.Seconds())
		}
		if st.hasMerge {
			obs.MergeSeconds.Observe(st.Merge.Seconds())
			obs.FinalizeSeconds.Observe(st.Finalize.Seconds())
		}
	}
}

// maxJoinTailRows is a sanity cap on the materialized cross product of
// the tail tables; it catches genuinely large-large joins.
const maxJoinTailRows = 1 << 20

// tailPlan is the data-independent half of a cross-join tail (all FROM
// tables after the first): which WHERE conjuncts push down to which
// tail table, and the residual predicate that still runs per joined
// row. Pushing single-table conjuncts down applies selective filters
// (the scoring queries' `l1.j = 1 AND ...`) before the product is
// formed, so the aliased k-way cross joins of §3.5 stay k rows wide
// instead of exploding combinatorially. A statement keeps one tailPlan
// and re-reads the (small) tail tables each EXECUTE, each table once, so
// inserts into model tables are always visible.
type tailPlan struct {
	splits   [][]sqlparser.Expr // per FROM index: conjuncts pushed to that table
	residual sqlparser.Expr
}

// planTail decides the push-down split. The decision is structural
// (which tables each conjunct references), so it is stable across
// executions of the same statement.
func planTail(b *binding, where sqlparser.Expr) *tailPlan {
	conjuncts := splitConjuncts(where)
	used := make([]bool, len(conjuncts))
	tp := &tailPlan{splits: make([][]sqlparser.Expr, len(b.tables))}
	for ti := 1; ti < len(b.tables); ti++ {
		for ci, c := range conjuncts {
			if used[ci] || !refsOnlyTable(c, b, ti) {
				continue
			}
			tp.splits[ti] = append(tp.splits[ti], c)
			used[ci] = true
		}
	}
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		if tp.residual == nil {
			tp.residual = c
		} else {
			tp.residual = &sqlparser.BinaryExpr{Op: "AND", L: tp.residual, R: c}
		}
	}
	return tp
}

// compileFilters compiles the pushed-down conjuncts, each against its
// own table's rows.
func (tp *tailPlan) compileFilters(b *binding, sc *expr.Scope) ([][]expr.Evaluator, error) {
	filters := make([][]expr.Evaluator, len(tp.splits))
	for ti, split := range tp.splits {
		if len(split) == 0 {
			continue
		}
		evs, err := compileAll(split, tableResolver(b, ti), sc)
		if err != nil {
			return nil, err
		}
		filters[ti] = evs
	}
	return filters, nil
}

// scan materializes the filtered cross product of the tail tables. Each
// distinct table is read once, however many aliases name it (§3.5's k
// model joins read C once, not k times): every row read is run through
// the pushed-down filters of each of its aliases and kept by those it
// passes. The cap is checked as each row is kept, against the product
// the rows kept so far make, so a large tail table fails at the row
// that crosses it instead of after it has been cloned whole.
func (tp *tailPlan) scan(ctx context.Context, b *binding, filters [][]expr.Evaluator) ([]sqltypes.Row, error) {
	kept := make([][]sqltypes.Row, len(b.tables))
	done := 1 // the product of the aliases of the tables already read
	for ti := 1; ti < len(b.tables); ti++ {
		if slices.Contains(b.tables[1:ti], b.tables[ti]) {
			continue // read with its first alias
		}
		var aliases []int
		for tj := ti; tj < len(b.tables); tj++ {
			if b.tables[tj] == b.tables[ti] {
				aliases = append(aliases, tj)
			}
		}
		err := b.tables[ti].ScanContext(ctx, func(r sqltypes.Row) error {
			var clone sqltypes.Row
			for _, a := range aliases {
				keep, err := passes(filters[a], r)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
				rows := done * (len(kept[a]) + 1)
				for _, o := range aliases {
					if o != a {
						rows *= max(len(kept[o]), 1)
					}
				}
				if rows > maxJoinTailRows {
					return fmt.Errorf("exec: cross-join tail exceeds %d rows; joins expect small model tables after the first table", maxJoinTailRows)
				}
				if clone == nil {
					clone = r.Clone()
				}
				kept[a] = append(kept[a], clone)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, a := range aliases {
			done *= len(kept[a])
		}
	}
	tail := []sqltypes.Row{{}}
	for _, trows := range kept[1:] {
		next := make([]sqltypes.Row, 0, len(tail)*len(trows))
		for _, t := range tail {
			for _, r := range trows {
				combined := make(sqltypes.Row, 0, len(t)+len(r))
				combined = append(combined, t...)
				combined = append(combined, r...)
				next = append(next, combined)
			}
		}
		tail = next
	}
	return tail, nil
}

// passes reports whether r passes every filter of fs.
func passes(fs []expr.Evaluator, r sqltypes.Row) (bool, error) {
	for _, f := range fs {
		keep, err := f.Eval(r)
		if err != nil || keep.IsNull() || !keep.Bool() {
			return false, err
		}
	}
	return true, nil
}

// splitConjuncts flattens a predicate's top-level AND tree.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sqlparser.Expr{e}
}

// refsOnlyTable reports whether every column reference in e binds to
// FROM entry ti (and there is at least one reference — constant
// predicates stay in the residual).
func refsOnlyTable(e sqlparser.Expr, b *binding, ti int) bool {
	any, all := false, true
	sqlparser.WalkColumns(e, func(cr *sqlparser.ColumnRef) {
		any = true
		c, err := b.Resolve(cr.Table, cr.Name)
		all = all && err == nil && c.Entry == ti
	})
	return any && all
}

// tableResolver resolves columns relative to one FROM entry's own rows.
func tableResolver(b *binding, ti int) expr.Resolver {
	return func(table, column string) (int, error) {
		c, err := b.Resolve(table, column)
		if err != nil {
			return 0, err
		}
		if c.Entry != ti {
			return 0, fmt.Errorf("exec: internal: column %s.%s escapes pushed-down table", table, column)
		}
		return c.Index, nil
	}
}

// sortRows applies ORDER BY over the materialized output. Keys may be
// output column names/aliases, 1-based ordinals, or expressions over
// the output schema.
func sortRows(order []sqlparser.OrderItem, schema *sqltypes.Schema, rows []sqltypes.Row, funcs *expr.Registry, params []sqltypes.Value) error {
	sc := &expr.Scope{Funcs: funcs, Params: params}
	defer flushCalls(sc)
	type key struct {
		ev   expr.Evaluator
		desc bool
	}
	resolve := func(table, col string) (int, error) {
		if idx := schema.Index(col); idx >= 0 {
			return idx, nil
		}
		return 0, fmt.Errorf("exec: ORDER BY column %q is not in the output", col)
	}
	keys := make([]key, len(order))
	for i, o := range order {
		if lit, ok := o.Expr.(*sqlparser.NumberLit); ok && lit.IsInt {
			ord := int(lit.Int)
			if ord < 1 || ord > schema.Len() {
				return fmt.Errorf("exec: ORDER BY ordinal %d out of range", ord)
			}
			keys[i] = key{ev: ordinalEval(ord - 1), desc: o.Desc}
			continue
		}
		ev, err := sc.Compile(o.Expr, resolve)
		if err != nil {
			return err
		}
		keys[i] = key{ev: ev, desc: o.Desc}
	}
	var sortErr error
	sort.SliceStable(rows, func(a, c int) bool {
		for _, k := range keys {
			va, err := k.ev.Eval(rows[a])
			if err != nil {
				sortErr = err
				return false
			}
			vc, err := k.ev.Eval(rows[c])
			if err != nil {
				sortErr = err
				return false
			}
			cmp := sqltypes.Compare(va, vc)
			if k.desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return sortErr
}

type ordinalEval int

func (o ordinalEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	return row[int(o)], nil
}
