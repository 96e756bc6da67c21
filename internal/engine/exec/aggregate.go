package exec

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
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
	tiles   []floatTile               // per spec with a float body: its rows not yet folded
}

// floatTile stages a spec's float rows for its float body: rows[:k·w]
// are k ≤ core.TileRows rows of its w arguments, row-major, that the
// state has not seen, copied from float rows and boxed fills or gathered
// out of blocks by core.FillTile. aggWorker.fold hands them on when the
// tile fills, before the state's Accumulate, and when the partition scan
// ends, so a state sees its rows in arrival order and merge and finalize
// see folded states only.
type floatTile struct {
	rows []float64 // made by the first row
	k    int
}

// aggPlan is the prepare-time half of an aggregate SELECT: the
// aggregate calls collected into specs, and the select items and HAVING
// rewritten over the post-aggregation row [group keys..., aggregate
// results...].
type aggPlan struct {
	specs   []aggSpec
	groupBy []sqlparser.Expr
	items   []sqlparser.Expr
	having  sqlparser.Expr // nil when absent
}

// planAggregate rewrites the select list (and HAVING) of an aggregate
// statement, collecting its aggregate specs.
func planAggregate(sel *sqlparser.Select, exprs []sqlparser.Expr, aggs *udf.Registry, aggNames map[string]bool) (*aggPlan, error) {
	a := &aggPlan{groupBy: sel.GroupBy, items: make([]sqlparser.Expr, len(exprs))}
	r := &aggRewriter{aggs: aggs, aggNames: aggNames}
	for _, g := range sel.GroupBy {
		r.groupKeys = append(r.groupKeys, matchKey(g))
	}
	var err error
	for i, e := range exprs {
		if a.items[i], err = r.rewrite(e); err != nil {
			return nil, err
		}
		// Rewritten items may only reference $grp/$agg columns.
		if err := onlyGroupRefs(a.items[i], "column"); err != nil {
			return nil, fmt.Errorf("%w (select item %d)", err, i+1)
		}
	}
	if sel.Having != nil {
		if a.having, err = r.rewrite(sel.Having); err != nil {
			return nil, err
		}
		if err := onlyGroupRefs(a.having, "HAVING column"); err != nil {
			return nil, err
		}
	}
	a.specs = r.specs
	return a, nil
}

func onlyGroupRefs(e sqlparser.Expr, what string) error {
	var bad error
	sqlparser.WalkColumns(e, func(cr *sqlparser.ColumnRef) {
		if cr.Table != grpQualifier && cr.Table != aggQualifier && bad == nil {
			bad = fmt.Errorf("exec: %s %s must appear in GROUP BY or inside an aggregate", what, cr)
		}
	})
	return bad
}

// resolve maps the synthetic $grp.k / $agg.k references of rewritten
// expressions to ordinals of the post-aggregation row.
func (a *aggPlan) resolve(table, col string) (int, error) {
	k, err := strconv.Atoi(col)
	if err != nil {
		return 0, fmt.Errorf("exec: internal: bad synthetic column %s.%s", table, col)
	}
	switch table {
	case grpQualifier:
		return k, nil
	case aggQualifier:
		return len(a.groupBy) + k, nil
	}
	return 0, fmt.Errorf("exec: internal: unexpected qualifier %q", table)
}

// floatSpec is a spec's float body, decided once at prepare (planFloats)
// and shared read-only by the statement's workers: the aggregate, its
// leading arguments boxed once, the scratch template each worker copies
// (literal slots converted, expr.ArgPlan.Floats), and where a float row
// or block holds its arguments.
type floatSpec struct {
	agg  udf.FloatAggregate
	lead []sqltypes.Value
	x    []float64
	// lanes[j] is the float-row position (the block slot) of argument j
	// after lead, -1 for a literal; cols are those it reads. prefix:
	// lanes[j] == j for every j.
	lanes  []int
	cols   []int
	prefix bool
}

// planFloats decides at prepare, once per spec, whether the spec has a
// float body: its aggregate is a udf.FloatAggregate, the call is not
// DISTINCT, its leading arguments are literals and its later literals
// convert. Then it decides whether the statement scans float rows: one
// table, no residual WHERE, no GROUP BY, and every spec a float body
// whose other arguments are bare numeric columns (storage.NumericColumn
// — the block source's rule; a BIGINT widens as Value.Float widens it),
// and, on disk, blocks. Every other statement scans boxed rows.
// It returns the float columns of a statement that does — the union of
// the specs' columns, one float-row position each — and nil otherwise.
// A plan that fails to build leaves its spec boxed; the worker's plan
// raises the error.
func (a *aggPlan) planFloats(b *binding, residual sqlparser.Expr, funcs *expr.Registry) []int {
	rows := len(b.tables) == 1 && residual == nil && len(a.groupBy) == 0
	schema := b.tables[0].Schema()
	var cols []int
	at := make(map[int]int) // schema ordinal -> float-row position
	for i := range a.specs {
		s := &a.specs[i]
		fa, ok := s.agg.(udf.FloatAggregate)
		if !ok || s.star || s.distinct {
			rows = false
			continue
		}
		plan, err := (&expr.Scope{Funcs: funcs}).PlanArgs(s.args, b.Ordinal)
		lead := fa.LeadArgs()
		var x []float64
		if err == nil {
			x = plan.Floats(lead)
		}
		if x == nil {
			rows = false
			continue
		}
		f := &floatSpec{agg: fa, lead: plan.Lead(lead), x: x, lanes: make([]int, len(x)-lead)}
		s.float = f
		for j := range f.lanes {
			f.lanes[j] = -1
		}
		argCols, bare := plan.Columns()
		rows = rows && bare
		f.prefix = len(argCols) == len(f.lanes)
		for _, c := range argCols {
			if !rows || !storage.NumericColumn(schema.Columns[c.Ord]) {
				rows = false
				break
			}
			p, seen := at[c.Ord]
			if !seen {
				p = len(cols)
				at[c.Ord] = p
				cols = append(cols, c.Ord)
			}
			f.lanes[c.Slot-lead] = p
			f.cols = append(f.cols, p)
			f.prefix = f.prefix && p == c.Slot-lead
		}
	}
	if !rows {
		return nil
	}
	return cols
}

// aggWorker is the aggregate half of a selectWorker: per-partition hash
// aggregation, phases 1-2 of the UDF protocol. The evaluators and
// buffers are pooled with the worker; groups is the partition's output
// and belongs to this worker alone until the single-threaded merge.
type aggWorker struct {
	specs    []aggSpec // the plan's, read-only
	groupEvs []expr.Evaluator
	args     []expr.ArgPlan // one per spec; the zero plan for count(*)
	floats   [][]float64    // per spec: its float body's scratch, nil when it has none
	lanes    [][][]float64  // per spec with a float body: its argument lanes in a block
	mask     []bool         // a block's row mask
	keyVals  sqltypes.Row
	keyBuf   strings.Builder

	groups map[string]*groupState
	// Without GROUP BY every row lands in groups[""]; once the first
	// qualifying row has created it the key build and map lookup are
	// skipped. (Created lazily: a partition with no qualifying row
	// contributes no group to the merge.)
	global   *groupState
	accCalls int64 // phase-2 calls, one per row and spec however they are tiled; flushed at release
}

func (a *aggPlan) newWorker(sc *expr.Scope, resolve expr.Resolver) (*aggWorker, error) {
	w := &aggWorker{
		specs:   a.specs,
		keyVals: make(sqltypes.Row, len(a.groupBy)),
		args:    make([]expr.ArgPlan, len(a.specs)),
		floats:  make([][]float64, len(a.specs)),
		lanes:   make([][][]float64, len(a.specs)),
	}
	var err error
	if w.groupEvs, err = compileAll(a.groupBy, resolve, sc); err != nil {
		return nil, err
	}
	for i, s := range a.specs {
		if s.star {
			continue
		}
		if w.args[i], err = sc.PlanArgs(s.args, resolve); err != nil {
			return nil, err
		}
		if s.float != nil {
			w.floats[i] = slices.Clone(s.float.x)
			w.lanes[i] = make([][]float64, len(s.float.lanes))
		}
	}
	return w, nil
}

// group returns the group state the flat row folds into.
func (w *aggWorker) group(flat sqltypes.Row) (*groupState, error) {
	if w.global != nil {
		return w.global, nil
	}
	w.keyBuf.Reset()
	for i, ev := range w.groupEvs {
		v, err := ev.Eval(flat)
		if err != nil {
			return nil, err
		}
		w.keyVals[i] = v
		s := v.String()
		w.keyBuf.WriteString(strconv.Itoa(len(s)))
		w.keyBuf.WriteByte(':')
		w.keyBuf.WriteString(s)
	}
	key := w.keyBuf.String()
	g, ok := w.groups[key]
	if !ok {
		var err error
		if g, err = newGroupState(w.keyVals, w.specs); err != nil {
			return nil, err
		}
		w.groups[key] = g
	}
	if len(w.groupEvs) == 0 {
		w.global = g
	}
	return g, nil
}

// accumulate folds one qualifying flat row into its group's states. A
// spec with a float body is filled through its plan into the float
// scratch, and the row is staged in the group's tile; a row the fill
// refuses (a NULL, a value that is not a number) goes to Accumulate
// boxed, like every spec without one.
func (w *aggWorker) accumulate(flat sqltypes.Row) error {
	g, err := w.group(flat)
	if err != nil {
		return err
	}
	for i, s := range w.specs {
		x := w.floats[i]
		args, err := w.args[i].Fill(flat, x)
		if err != nil {
			return err
		}
		if x != nil && args == nil { // the fill took: x holds the row
			w.accCalls++
			if err := w.stage(g, i, x[len(s.float.lead):]); err != nil {
				return err
			}
			continue
		}
		if g.seen[i] != nil {
			k := argsKey(args)
			if _, dup := g.seen[i][k]; !dup {
				saved := make(sqltypes.Row, len(args))
				copy(saved, args)
				g.seen[i][k] = saved
			}
			continue // accumulated after the global set union
		}
		if err := w.fold(g, i); err != nil {
			return err
		}
		if err := s.agg.Accumulate(g.states[i], args); err != nil {
			return err
		}
		w.accCalls++
	}
	return nil
}

// floatRow folds one row of a float-row scan (see planFloats): each spec
// — each has a float body there — stages its arguments straight from
// frow when they are its leading columns in order, else gathered first.
func (w *aggWorker) floatRow(frow []float64) error {
	g, err := w.group(nil)
	if err != nil {
		return err
	}
	for i := range w.specs { // by index: a spec is too wide to copy per row
		f, x := w.specs[i].float, frow
		if !f.prefix {
			x = w.floats[i][len(f.lead):]
			for j, p := range f.lanes {
				if p >= 0 {
					x[j] = frow[p]
				}
			}
		}
		if err := w.stage(g, i, x); err != nil {
			return err
		}
	}
	w.accCalls += int64(len(w.specs))
	return nil
}

// stage copies spec i's float arguments from x into the next row of g's
// tile, folding the tile if that fills it.
func (w *aggWorker) stage(g *groupState, i int, x []float64) error {
	t, n := w.tile(g, i), len(w.specs[i].float.lanes)
	copy(t.rows[t.k*n:(t.k+1)*n], x)
	if t.k++; t.k == core.TileRows {
		return w.fold(g, i)
	}
	return nil
}

// tile returns g's tile for spec i, made on first use.
func (w *aggWorker) tile(g *groupState, i int) *floatTile {
	t := &g.tiles[i]
	if t.rows == nil {
		t.rows = make([]float64, core.TileRows*len(w.specs[i].float.lanes))
	}
	return t
}

// fold hands the rows staged in g's tile for spec i to its float body.
func (w *aggWorker) fold(g *groupState, i int) error {
	t := &g.tiles[i]
	if t.k == 0 {
		return nil
	}
	f, k := w.specs[i].float, t.k
	t.k = 0
	return f.agg.AccumulateFloats(g.states[i], f.lead, t.rows[:k*len(f.lanes)], k)
}

// flush folds every group's staged rows: the end of each partition scan
// that succeeded.
func (w *aggWorker) flush() error {
	for _, g := range w.groups {
		for i := range g.tiles {
			if err := w.fold(g, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// block stages one block (offered where float rows are) as float rows:
// each spec's argument lanes — a column read twice is one lane, a
// literal a lane of its value, filled once per worker — go through
// core.FillTile into the group's tile, the rows valid in all of them in
// order.
func (w *aggWorker) block(blk *storage.Block) error {
	g, err := w.group(nil)
	if err != nil {
		return err
	}
	for i := range w.specs {
		f, lanes := w.specs[i].float, w.lanes[i]
		for j, p := range f.lanes {
			switch {
			case p >= 0:
				lanes[j] = blk.Cols[p][:blk.Rows]
			case cap(lanes[j]) >= blk.Rows:
				lanes[j] = lanes[j][:blk.Rows]
			default:
				lanes[j] = make([]float64, blk.Rows)
				for r := range lanes[j] {
					lanes[j][r] = f.x[len(f.lead)+j]
				}
			}
		}
		w.mask = blk.Mask(f.cols, w.mask)
		for t, r := w.tile(g, i), 0; r < blk.Rows; {
			if t.k, r = core.FillTile(t.rows, t.k, lanes, w.mask, r); t.k == core.TileRows {
				if err := w.fold(g, i); err != nil {
					return err
				}
			}
		}
	}
	w.accCalls += int64(len(w.specs) * blk.Rows)
	return nil
}

// mergeFinalize is phases 3-4 of the UDF protocol: the master merge of
// the per-partition partials, then finalization, HAVING and the
// post-aggregation select items, one output row per group. Scan-phase
// panics are contained per partition by RunParallel; the guard here
// covers Merge and Finalize, which run UDF code on the coordinating
// goroutine.
func (a *aggPlan) mergeFinalize(partGroups []map[string]*groupState, ss *stmtSet, sink RowSink, st *Stats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: panic during aggregation: %v\n%s", r, debug.Stack())
		}
	}()
	mergeSpan := st.Root.child("merge")
	merged := partGroups[0]
	for _, pg := range partGroups[1:] {
		for key, src := range pg {
			dst, ok := merged[key]
			if !ok {
				merged[key] = src
				continue
			}
			for i, s := range a.specs {
				if dst.seen[i] != nil {
					for k, v := range src.seen[i] {
						dst.seen[i][k] = v
					}
					continue
				}
				if err := s.agg.Merge(dst.states[i], src.states[i]); err != nil {
					return err
				}
			}
		}
	}
	st.Merge = mergeSpan.finish()

	// Global aggregate over an empty input still yields one row.
	if len(a.groupBy) == 0 && len(merged) == 0 {
		g, err := newGroupState(nil, a.specs)
		if err != nil {
			return err
		}
		merged[""] = g
	}

	finalizeSpan := st.Root.child("finalize")
	defer func() { st.Finalize = finalizeSpan.finish() }()
	groupRow := make(sqltypes.Row, len(a.groupBy)+len(a.specs))
	outRow := make(sqltypes.Row, len(ss.items))
	for _, g := range merged {
		copy(groupRow, g.keyVals)
		for i, s := range a.specs {
			if g.seen[i] != nil {
				// Fold the (now global) distinct set into the state.
				for _, args := range g.seen[i] {
					if err := s.agg.Accumulate(g.states[i], args); err != nil {
						return err
					}
				}
				obs.UDFCalls.Add(int64(len(g.seen[i])))
			}
			v, err := s.agg.Finalize(g.states[i])
			if err != nil {
				return err
			}
			groupRow[len(a.groupBy)+i] = v
		}
		if ss.having != nil {
			keep, err := ss.having.Eval(groupRow)
			if err != nil {
				return err
			}
			if keep.IsNull() || !keep.Bool() {
				continue
			}
		}
		for i, ev := range ss.items {
			v, err := ev.Eval(groupRow)
			if err != nil {
				return err
			}
			outRow[i] = v
		}
		if err := sink(outRow); err != nil {
			return err
		}
	}
	return nil
}

func newGroupState(keyVals sqltypes.Row, specs []aggSpec) (*groupState, error) {
	g := &groupState{
		keyVals: keyVals.Clone(),
		states:  make([]udf.State, len(specs)),
		seen:    make([]map[string]sqltypes.Row, len(specs)),
		tiles:   make([]floatTile, len(specs)),
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

func argsKey(args []sqltypes.Value) string {
	var b strings.Builder
	for _, v := range args {
		s := v.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}
