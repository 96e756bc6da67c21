package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// groupState is the per-group working storage: one UDF state per
// aggregate spec plus the group key values. DISTINCT specs defer
// accumulation: they collect the value set during the scan and fold it
// into a fresh state only after the cross-partition set union, so a
// value seen in two partitions counts once.
type groupState struct {
	keyVals sqltypes.Row
	states  []udf.State
	seen    []map[string]sqltypes.Row // per-spec DISTINCT sets, nil when not distinct
}

// runAggregate executes an aggregate SELECT: per-partition hash
// aggregation (phases 1-2 of the UDF protocol), a master merge
// (phase 3), then finalization and post-aggregation expression
// evaluation (phase 4). Each phase's wall time and the per-partition
// scan volumes are recorded in st; every per-partition state is local
// to its worker goroutine until the single-threaded merge.
func runAggregate(ctx context.Context, sel *sqlparser.Select, items []sqlparser.SelectItem, b *binding, env *Env, sink RowSink, st *Stats) (_ *sqltypes.Schema, err error) {
	// Scan-phase panics are contained per partition by RunParallel; this
	// guard covers the merge and finalize phases, which run UDF code
	// (Merge, Finalize) on the coordinating goroutine.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: panic during aggregation: %v\n%s", r, debug.Stack())
		}
	}()
	st.hasMerge = true
	plan := st.ensureRoot().child("plan")
	// Rewrite the select list, collecting aggregate specs.
	rewritten := make([]sqlparser.Expr, len(items))
	var specs []aggSpec
	for i, item := range items {
		rewritten[i], specs, err = rewriteAggregates(item.Expr, sel.GroupBy, specs, env.Aggs)
		if err != nil {
			return nil, err
		}
	}
	// HAVING is evaluated over the same post-aggregation row.
	var having sqlparser.Expr
	if sel.Having != nil {
		having, specs, err = rewriteAggregates(sel.Having, sel.GroupBy, specs, env.Aggs)
		if err != nil {
			return nil, err
		}
	}

	// Validate: rewritten items may only reference $grp/$agg columns.
	for i, re := range rewritten {
		var bad error
		walkRefs(re, func(cr *sqlparser.ColumnRef) {
			if cr.Table != grpQualifier && cr.Table != aggQualifier && bad == nil {
				bad = fmt.Errorf("exec: column %s must appear in GROUP BY or inside an aggregate", cr)
			}
		})
		if bad != nil {
			return nil, fmt.Errorf("%w (select item %d)", bad, i+1)
		}
	}

	tail, residual, err := joinTail(ctx, b, sel.Where, env.Funcs)
	if err != nil {
		return nil, err
	}

	first := b.tables[0].table
	nparts := first.Partitions()
	partGroups := make([]map[string]*groupState, nparts)
	st.Partitions = nparts
	st.Workers = scanWorkers(env, nparts)
	st.PartitionRows = make([]int64, nparts)
	st.Plan = plan.finish()

	scanSpan := st.Root.child("scan")
	partSpans := make([]*Span, nparts)
	err = RunParallel(ctx, st.Workers, nparts, func(ctx context.Context, p int) error {
		span := newSpan(fmt.Sprintf("scan[p%d]", p))
		partSpans[p] = span
		// Everything below — evaluators, group states, errors — is
		// local to this partition's worker; partGroups[p] is this
		// worker's own slot. Nothing here may write enclosing-scope
		// variables (the old code shared `err` across workers, the
		// data race this layer exists to prevent).
		groups := make(map[string]*groupState)
		partGroups[p] = groups

		var where expr.Evaluator
		if residual != nil {
			w, cerr := expr.Compile(residual, b.resolve, env.Funcs)
			if cerr != nil {
				return cerr
			}
			where = w
		}
		groupEvs := make([]expr.Evaluator, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			ev, cerr := expr.Compile(g, b.resolve, env.Funcs)
			if cerr != nil {
				return cerr
			}
			groupEvs[i] = ev
		}
		argEvs := make([][]expr.Evaluator, len(specs))
		for i, s := range specs {
			argEvs[i] = make([]expr.Evaluator, len(s.args))
			for j, a := range s.args {
				ev, cerr := expr.Compile(a, b.resolve, env.Funcs)
				if cerr != nil {
					return cerr
				}
				argEvs[i][j] = ev
			}
		}

		flat := make(sqltypes.Row, b.width)
		keyVals := make(sqltypes.Row, len(groupEvs))
		var keyBuf strings.Builder
		argBuf := make([]sqltypes.Value, 8)
		var accCalls int64 // aggregate-protocol Accumulate calls, flushed once
		// Without GROUP BY every row lands in groups[""]; once the first
		// qualifying row has created it the key build and map lookup are
		// skipped. (Created lazily, as before: a partition with no
		// qualifying row contributes no group to the merge.)
		var global *groupState

		ps, serr := first.ScanPartitionStats(ctx, p, func(r sqltypes.Row) error {
			for _, t := range tail {
				copy(flat, r)
				copy(flat[len(r):], t)
				if where != nil {
					keep, err := where.Eval(flat)
					if err != nil {
						return err
					}
					if keep.IsNull() || !keep.Bool() {
						continue
					}
				}
				g := global
				if g == nil {
					// Group key.
					keyBuf.Reset()
					for i, ev := range groupEvs {
						v, err := ev.Eval(flat)
						if err != nil {
							return err
						}
						keyVals[i] = v
						s := v.String()
						keyBuf.WriteString(strconv.Itoa(len(s)))
						keyBuf.WriteByte(':')
						keyBuf.WriteString(s)
					}
					key := keyBuf.String()
					var ok bool
					if g, ok = groups[key]; !ok {
						ng, gerr := newGroupState(keyVals, specs)
						if gerr != nil {
							return gerr
						}
						g = ng
						groups[key] = g
					}
					if len(groupEvs) == 0 {
						global = g
					}
				}
				// Accumulate each aggregate.
				for i, s := range specs {
					var args []sqltypes.Value
					if !s.star {
						if cap(argBuf) < len(argEvs[i]) {
							argBuf = make([]sqltypes.Value, len(argEvs[i]))
						}
						args = argBuf[:len(argEvs[i])]
						for j, ev := range argEvs[i] {
							v, err := ev.Eval(flat)
							if err != nil {
								return err
							}
							args[j] = v
						}
					}
					if g.seen[i] != nil {
						k := distinctKey(args)
						if _, dup := g.seen[i][k]; !dup {
							saved := make(sqltypes.Row, len(args))
							copy(saved, args)
							g.seen[i][k] = saved
						}
						continue // accumulated after the global set union
					}
					if err := s.agg.Accumulate(g.states[i], args); err != nil {
						return err
					}
					accCalls++
				}
			}
			return nil
		})
		st.PartitionRows[p] = ps.Rows
		span.Rows, span.Bytes = ps.Rows, ps.Bytes
		span.finish()
		obs.UDFCalls.Add(accCalls)
		return serr
	})
	st.Scan = scanSpan.finish()
	finishScanSpan(scanSpan, partSpans, st)
	if err != nil {
		return nil, err
	}

	// Phase 3: master merge of per-partition partials.
	mergeSpan := st.Root.child("merge")
	merged := partGroups[0]
	for _, pg := range partGroups[1:] {
		for key, src := range pg {
			dst, ok := merged[key]
			if !ok {
				merged[key] = src
				continue
			}
			for i, s := range specs {
				if dst.seen[i] != nil {
					for k, v := range src.seen[i] {
						dst.seen[i][k] = v
					}
					continue
				}
				if err := s.agg.Merge(dst.states[i], src.states[i]); err != nil {
					return nil, err
				}
			}
		}
	}

	st.Merge = mergeSpan.finish()

	// Global aggregate over an empty input still yields one row.
	if len(sel.GroupBy) == 0 && len(merged) == 0 {
		g, err := newGroupState(nil, specs)
		if err != nil {
			return nil, err
		}
		merged[""] = g
	}

	// Phase 4: finalize and evaluate post-aggregation expressions.
	finalizeSpan := st.Root.child("finalize")
	defer func() { st.Finalize = finalizeSpan.finish() }()
	outSchema := &sqltypes.Schema{Columns: make([]sqltypes.Column, len(items))}
	for i, item := range items {
		outSchema.Columns[i] = sqltypes.Column{Name: itemName(item, i), Type: sqltypes.TypeDouble}
	}
	resolve := func(table, col string) (int, error) {
		k, err := strconv.Atoi(col)
		if err != nil {
			return 0, fmt.Errorf("exec: internal: bad synthetic column %s.%s", table, col)
		}
		switch table {
		case grpQualifier:
			return k, nil
		case aggQualifier:
			return len(sel.GroupBy) + k, nil
		}
		return 0, fmt.Errorf("exec: internal: unexpected qualifier %q", table)
	}
	itemEvs := make([]expr.Evaluator, len(rewritten))
	for i, re := range rewritten {
		ev, err := expr.Compile(re, resolve, env.Funcs)
		if err != nil {
			return nil, err
		}
		itemEvs[i] = ev
	}
	var havingEv expr.Evaluator
	if having != nil {
		var bad error
		walkRefs(having, func(cr *sqlparser.ColumnRef) {
			if cr.Table != grpQualifier && cr.Table != aggQualifier && bad == nil {
				bad = fmt.Errorf("exec: HAVING column %s must appear in GROUP BY or inside an aggregate", cr)
			}
		})
		if bad != nil {
			return nil, bad
		}
		if havingEv, err = expr.Compile(having, resolve, env.Funcs); err != nil {
			return nil, err
		}
	}

	groupRow := make(sqltypes.Row, len(sel.GroupBy)+len(specs))
	outRow := make(sqltypes.Row, len(items))
	for _, g := range merged {
		copy(groupRow, g.keyVals)
		for i, s := range specs {
			if g.seen[i] != nil {
				// Fold the (now global) distinct set into the state.
				for _, args := range g.seen[i] {
					if err := s.agg.Accumulate(g.states[i], args); err != nil {
						return nil, err
					}
				}
				obs.UDFCalls.Add(int64(len(g.seen[i])))
			}
			v, err := s.agg.Finalize(g.states[i])
			if err != nil {
				return nil, err
			}
			groupRow[len(sel.GroupBy)+i] = v
		}
		if havingEv != nil {
			keep, err := havingEv.Eval(groupRow)
			if err != nil {
				return nil, err
			}
			if keep.IsNull() || !keep.Bool() {
				continue
			}
		}
		for i, ev := range itemEvs {
			v, err := ev.Eval(groupRow)
			if err != nil {
				return nil, err
			}
			outRow[i] = v
		}
		if err := sink(outRow); err != nil {
			return nil, err
		}
	}
	return outSchema, nil
}

func newGroupState(keyVals sqltypes.Row, specs []aggSpec) (*groupState, error) {
	g := &groupState{
		keyVals: keyVals.Clone(),
		states:  make([]udf.State, len(specs)),
		seen:    make([]map[string]sqltypes.Row, len(specs)),
	}
	for i, s := range specs {
		st, err := s.agg.Init(udf.NewHeap(udf.SegmentSize))
		if err != nil {
			return nil, err
		}
		g.states[i] = st
		if s.distinct {
			g.seen[i] = make(map[string]sqltypes.Row)
		}
	}
	return g, nil
}

func distinctKey(args []sqltypes.Value) string {
	var b strings.Builder
	for _, v := range args {
		s := v.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

// walkRefs visits every column reference in an expression.
func walkRefs(e sqlparser.Expr, fn func(*sqlparser.ColumnRef)) {
	switch e := e.(type) {
	case *sqlparser.ColumnRef:
		fn(e)
	case *sqlparser.UnaryExpr:
		walkRefs(e.X, fn)
	case *sqlparser.BinaryExpr:
		walkRefs(e.L, fn)
		walkRefs(e.R, fn)
	case *sqlparser.FuncCall:
		for _, a := range e.Args {
			walkRefs(a, fn)
		}
	case *sqlparser.CaseExpr:
		for _, w := range e.Whens {
			walkRefs(w.Cond, fn)
			walkRefs(w.Then, fn)
		}
		if e.Else != nil {
			walkRefs(e.Else, fn)
		}
	case *sqlparser.IsNullExpr:
		walkRefs(e.X, fn)
	case *sqlparser.CastExpr:
		walkRefs(e.X, fn)
	case *sqlparser.BetweenExpr:
		walkRefs(e.X, fn)
		walkRefs(e.Lo, fn)
		walkRefs(e.Hi, fn)
	case *sqlparser.InExpr:
		walkRefs(e.X, fn)
		for _, x := range e.List {
			walkRefs(x, fn)
		}
	}
}
