package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// PreparedSelect is a SELECT of any shape planned once for repeated
// execution. Prepare sema-checks the statement, binds FROM to concrete
// table handles, expands stars, appends ORDER BY keys that are not
// output columns as hidden items, decides the join-tail push-down,
// rewrites aggregate calls into specs, decides whether the scan may use
// the block source, and compiles every expression into the expr.Scope of
// the pooled set that runs it. Run points the scopes at the
// arguments and runs the one partition scan (scanPartitions) with a
// pooled worker per partition; aggregates then merge and finalize, and
// ORDER BY/LIMIT/hidden-key stripping run as one post-step over the
// materialized rows.
//
// Table handles are captured at prepare, so an execution that races a
// DROP/CREATE sees the pre-DDL tables consistently; the db layer's
// catalog epoch decides when the plan as a whole is stale. Tail (model)
// tables are re-scanned per execution, so freshly inserted model rows are
// always visible. A PreparedSelect is safe for concurrent use.
type PreparedSelect struct {
	env       *Env
	numParams int
	// schema is the output incl. hidden keys. A FROM-less select takes
	// only its column names from it: its types follow the values.
	schema *sqltypes.Schema

	// exprs are the select-list expressions a projection worker (or the
	// one evaluation of a FROM-less select) computes.
	exprs []sqlparser.Expr

	b    *binding  // nil for FROM-less selects
	tail *tailPlan // join-tail push-down and the residual WHERE
	agg  *aggPlan  // non-nil for aggregate / GROUP BY statements
	vec  *vecPlan  // non-nil when the projection may scan blocks
	rows *rowPlan  // non-nil when the projection may scan float rows
	src  sources   // the unboxed sources the scan is offered

	// Post-step: ORDER BY with hidden keys rewritten to their synthetic
	// names, LIMIT, and how many trailing hidden columns to strip.
	order  []sqlparser.OrderItem
	limit  *int64
	hidden int

	workers sync.Pool // *selectWorker
	stmts   sync.Pool // *stmtSet
}

// compileAll compiles es for the owner of sc: each pooled set compiles
// its evaluators into its own scope.
func compileAll(es []sqlparser.Expr, r expr.Resolver, sc *expr.Scope) ([]expr.Evaluator, error) {
	evs := make([]expr.Evaluator, len(es))
	for i, e := range es {
		ev, err := sc.Compile(e, r)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	return evs, nil
}

// stmtSet is the compiled state one execution uses serially: the tail
// push-down filters, and the evaluators that run per statement rather
// than per scanned row — post-aggregation select items and HAVING, or
// the whole select list of a FROM-less statement.
type stmtSet struct {
	scope   expr.Scope
	filters [][]expr.Evaluator
	items   []expr.Evaluator
	having  expr.Evaluator
}

// PrepareSelect plans sel (already view-expanded) against env.
func PrepareSelect(sel *sqlparser.Select, env *Env) (*PreparedSelect, error) {
	if err := analyze(sel, env); err != nil {
		return nil, err
	}
	p := &PreparedSelect{env: env, numParams: sqlparser.CountParams(sel), limit: sel.Limit}
	items := sel.Items
	if len(sel.OrderBy) > 0 {
		items = p.planOrder(sel)
	}
	// sema has refused what a FROM-less select may not have (WHERE,
	// GROUP BY, stars) and HAVING without aggregation.
	if len(sel.From) > 0 {
		b, err := bindFrom(sel.From, env.Catalog)
		if err != nil {
			return nil, err
		}
		if items, err = b.Expand(items); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		p.b, p.tail = b, planTail(b, sel.Where)
	}
	aggNames := env.Aggs.Names()
	isAgg := expr.IsAggregateQuery(sel, aggNames)
	cols := make([]sqltypes.Column, len(items))
	for i, item := range items {
		p.exprs = append(p.exprs, item.Expr)
		cols[i] = sqltypes.Column{Name: sqlparser.OutputName(item, i), Type: sqltypes.TypeDouble}
	}
	p.schema = &sqltypes.Schema{Columns: cols}
	switch {
	case p.b == nil:
		// Nothing to scan: the select list is evaluated once per execute.
	case isAgg:
		var err error
		if p.agg, err = planAggregate(sel, p.exprs, env.Aggs, aggNames); err != nil {
			return nil, err
		}
		p.planSources()
	default:
		// A bare column keeps its declared type; computed items are DOUBLE.
		for i, e := range p.exprs {
			if cr, ok := e.(*sqlparser.ColumnRef); ok {
				if c, err := p.b.Resolve(cr.Table, cr.Name); err == nil {
					cols[i].Type, _ = p.b.Type(c)
				}
			}
		}
		// Block source: a parameter-free single-table projection whose
		// items and residual WHERE compile to vector programs scans
		// blocks. A rejected shape counts one fallback here, at prepare.
		if p.offersBlocks() && p.numParams == 0 && len(p.b.tables) == 1 {
			if vp, err := planVec(p.exprs, p.tail.residual, p.b); err == nil {
				p.vec, p.src = vp, sources{cols: vp.cols, block: true}
			} else {
				obs.ColumnarFallbacks.Inc()
			}
		}
	}
	// Compile one set of each kind eagerly so compile errors surface at
	// prepare time, then seed the pools with them.
	ss, err := p.newStmtSet()
	if err != nil {
		return nil, err
	}
	p.stmts.Put(ss)
	if p.b != nil {
		w, err := p.newWorker()
		if err != nil {
			return nil, err
		}
		if p.agg == nil && p.vec == nil && p.numParams == 0 && p.tail.residual == nil {
			p.planRows(w)
		}
		p.workers.Put(w)
	}
	return p, nil
}

// rowPlan is a projection's float-row form, decided once at prepare
// (planRows): where each select item reads a float row, and what the
// float row holds.
type rowPlan struct {
	// pos[i] is item i's float-row position when it is a bare column,
	// -1 when it is a call; bigint[i] marks a bare BIGINT column.
	pos    []int
	bigint []bool
	// at[o] is the float-row position of driving column o, -1 when the
	// statement reads it only boxed; bound are the join-tail ordinals the
	// calls read.
	at    []int
	bound []int
}

// planRows decides whether a projection that has no `?`, no residual
// WHERE and no block source scans float rows: every select item is a
// bare DOUBLE or BIGINT column of the driving table or a call
// expr.AsFloatCall accepts over such columns, and one at least is a
// call. The float row is the union of the columns they read, one
// position each (src.floats). The decision reads w's compiled items, so
// nothing is compiled twice; w, the first worker, is placed here and
// every later one by newWorker.
func (p *PreparedSelect) planRows(w *selectWorker) {
	schema := p.b.tables[0].Schema()
	rp := &rowPlan{pos: make([]int, len(w.items)), bigint: make([]bool, len(w.items)), at: make([]int, schema.Len())}
	for o := range rp.at {
		rp.at[o] = -1
	}
	cols := []int{}
	place := func(o int) bool {
		if !storage.NumericColumn(schema.Columns[o]) {
			return false
		}
		if rp.at[o] < 0 {
			rp.at[o] = len(cols)
			cols = append(cols, o)
		}
		return true
	}
	calls := 0
	var ords []int
	for i, ev := range w.items {
		rp.pos[i] = -1
		if call, ok := expr.AsFloatCall(ev); ok {
			ords, rp.bound = call.Columns(ords[:0], rp.bound)
			for _, o := range ords {
				if !place(o) {
					return
				}
			}
			calls++
			continue
		}
		cr, ok := p.exprs[i].(*sqlparser.ColumnRef)
		if !ok {
			return
		}
		c, err := p.b.Resolve(cr.Table, cr.Name)
		if err != nil || c.Entry != 0 || !place(c.Index) {
			return
		}
		rp.pos[i] = rp.at[c.Index]
		rp.bigint[i] = schema.Columns[c.Index].Type == sqltypes.TypeBigInt
	}
	if calls == 0 {
		return
	}
	p.rows, p.src = rp, sources{cols: cols, floats: true}
	w.placeRows()
}

// converts reports whether every tail value the float calls read
// converts to a number. An execution whose tail holds one that does not
// scans boxed rows, where the calls' boxed forms own it.
func (rp *rowPlan) converts(tail []sqltypes.Row) bool {
	for _, t := range tail {
		for _, o := range rp.bound {
			if _, ok := t[o].Float(); !ok {
				return false
			}
		}
	}
	return true
}

// offersBlocks reports whether the statement's scan may read blocks: the
// environment allows it and the driving table is on disk — a table
// without a directory (in-memory and system tables) has no sealed
// chunks and counts no fallback.
func (p *PreparedSelect) offersBlocks() bool {
	return p.env.Columnar && p.b.tables[0].OnDisk()
}

// planSources decides an aggregate's unboxed sources (planFloats); where
// blocks are offered, one that cannot take them counts a fallback, as
// projections do.
func (p *PreparedSelect) planSources() {
	if cols := p.agg.planFloats(p.b, p.tail.residual, p.env.Funcs); cols != nil {
		p.src = sources{cols: cols, floats: true, block: p.offersBlocks()}
	} else if p.offersBlocks() {
		obs.ColumnarFallbacks.Inc()
	}
}

// reads reports whether the statement scans t, as its driving table or
// in its join tail.
func (p *PreparedSelect) reads(t *storage.Table) bool {
	return p.b != nil && slices.Contains(p.b.tables, t)
}

// planOrder returns sel's items with every ORDER BY key that cannot be
// evaluated against the output appended as a hidden `$orderN` item, and
// records the keys — hidden ones rewritten to those names — for the
// post-step.
func (p *PreparedSelect) planOrder(sel *sqlparser.Select) []sqlparser.SelectItem {
	outNames, _ := sqlparser.OutputNames(sel)
	items := append([]sqlparser.SelectItem(nil), sel.Items...)
	p.order = append([]sqlparser.OrderItem(nil), sel.OrderBy...)
	for i, o := range sel.OrderBy {
		if sqlparser.OrderKeyOnOutput(o.Expr, outNames) {
			continue
		}
		alias := fmt.Sprintf("$order%d", p.hidden)
		items = append(items, sqlparser.SelectItem{Expr: o.Expr, Alias: alias})
		p.order[i].Expr = &sqlparser.ColumnRef{Name: alias}
		p.hidden++
	}
	return items
}

// NumParams reports how many `?` slots the statement has.
func (p *PreparedSelect) NumParams() int { return p.numParams }

func (p *PreparedSelect) newStmtSet() (*stmtSet, error) {
	s := &stmtSet{scope: expr.Scope{Funcs: p.env.Funcs}}
	var err error
	switch {
	case p.b == nil:
		s.items, err = compileAll(p.exprs, nil, &s.scope)
		return s, err
	case p.agg != nil:
		if s.items, err = compileAll(p.agg.items, p.agg.resolve, &s.scope); err != nil {
			return nil, err
		}
		if p.agg.having != nil {
			if s.having, err = s.scope.Compile(p.agg.having, p.agg.resolve); err != nil {
				return nil, err
			}
		}
	}
	s.filters, err = p.tail.compileFilters(p.b, &s.scope)
	return s, err
}

func (p *PreparedSelect) getStmtSet() (*stmtSet, error) {
	if s, ok := p.stmts.Get().(*stmtSet); ok {
		return s, nil
	}
	return p.newStmtSet()
}

// Run binds args and executes the statement once. With a nil sink the
// rows are materialized into the Result, with ORDER BY, LIMIT and the
// hidden sort keys applied. With a sink they are streamed to it
// (concurrently, from the partition workers, one call per row) and the
// Result carries the schema and stats only; a plan with ORDER BY or
// LIMIT needs every row before the first can leave, so it materializes
// and replays its rows into sink in order. When the statement fails
// after its scan began, the Result is non-nil and carries only the
// Stats gathered up to the failure.
//
// A streaming worker projects rows into a batch of up to batchRows and
// calls sink for them only when the batch fills or its partition ends,
// so a selective statement may deliver nothing until a partition is
// done. When the scan fails — an evaluation error, a sink error, a
// cancelled ctx — the rows a worker projected but had not yet delivered
// are dropped, not handed to sink ahead of the error.
func (p *PreparedSelect) Run(ctx context.Context, args []sqltypes.Value, sink RowSink) (*Result, error) {
	if sink == nil {
		return p.materialize(ctx, args)
	}
	return p.run(ctx, args, func(rows []sqltypes.Row) (int, error) {
		for i, r := range rows {
			if err := sink(r); err != nil {
				return i, err
			}
		}
		return len(rows), nil
	})
}

// run is Run with the executor's own batch delivery.
func (p *PreparedSelect) run(ctx context.Context, args []sqltypes.Value, sink batchSink) (*Result, error) {
	if p.order == nil && p.limit == nil {
		schema, st, err := p.execute(ctx, args, sink)
		if err != nil {
			return &Result{Stats: st}, err
		}
		return &Result{Schema: schema, Stats: st}, nil
	}
	res, err := p.materialize(ctx, args)
	if err == nil {
		_, err = sink(res.Rows)
	}
	if err != nil {
		return &Result{Stats: res.Stats}, err
	}
	res.Rows = nil
	return res, nil
}

// materialize runs the statement once and applies the post-step to its
// collected rows.
func (p *PreparedSelect) materialize(ctx context.Context, args []sqltypes.Value) (*Result, error) {
	col := &collector{}
	schema, st, err := p.execute(ctx, args, col.add)
	if err != nil {
		return &Result{Stats: st}, err
	}
	rows := col.rows
	if p.order != nil {
		if err := sortRows(p.order, schema, rows, p.env.Funcs, args); err != nil {
			return &Result{Stats: st}, err
		}
	}
	if p.limit != nil && int64(len(rows)) > *p.limit {
		rows = rows[:*p.limit]
	}
	if p.hidden > 0 {
		keep := schema.Len() - p.hidden
		schema = &sqltypes.Schema{Columns: schema.Columns[:keep]}
		for i, r := range rows {
			rows[i] = r[:keep]
		}
	}
	return &Result{Schema: schema, Rows: rows, Stats: st}, nil
}

// execute runs the statement once, delivering unordered rows (hidden
// keys included) to sink.
func (p *PreparedSelect) execute(ctx context.Context, args []sqltypes.Value, sink batchSink) (*sqltypes.Schema, *Stats, error) {
	if len(args) != p.numParams {
		return nil, nil, paramCountError(p.numParams, len(args))
	}
	ss, err := p.getStmtSet()
	if err != nil {
		return nil, nil, err
	}
	ss.scope.Params = args
	defer func() {
		flushCalls(&ss.scope)
		p.stmts.Put(ss)
	}()

	st := &Stats{Workers: 1}
	finish := beginSelectObs(st)
	defer finish()
	// Count emitted rows in a local atomic the workers add to once per
	// batch, published to the plain Stats field after they join (and
	// before finish reads it — deferred last, runs first). The count is
	// not a Stats field so the Stats struct stays plainly readable:
	// mixing atomic and plain access to one field is a race (see the
	// atomichygiene analyzer).
	emitted := new(atomic.Int64)
	defer func() { st.RowsEmitted = emitted.Load() }()
	// The statement-level rows — a FROM-less select's one row, the
	// aggregate's groups — are emitted one at a time.
	one := make([]sqltypes.Row, 1)
	emitRow := func(r sqltypes.Row) error {
		one[0] = r
		n, err := sink(one)
		emitted.Add(int64(n))
		return err
	}

	if p.b == nil {
		schema, err := p.constRow(ss, emitRow)
		return schema, st, err
	}
	var groups []map[string]*groupState
	if p.agg != nil {
		groups = make([]map[string]*groupState, p.b.tables[0].Partitions())
	}
	err = p.scan(ctx, args, ss.filters, st, sink, emitted, groups, nil)
	if err == nil && p.agg != nil {
		err = p.agg.mergeFinalize(groups, ss, emitRow, st)
	}
	return p.schema, st, err
}

// scan materializes the join tail and runs the partition scan with a
// pooled worker per partition, recording both in st. An aggregate folds
// partition p into groups[p], made when nil: phases 1-2, before merge.
// marks, when set, resume the partitions (scanPartitions).
func (p *PreparedSelect) scan(ctx context.Context, args []sqltypes.Value, filters [][]expr.Evaluator, st *Stats, sink batchSink, emitted *atomic.Int64, groups []map[string]*groupState, marks []storage.Mark) error {
	plan := st.ensureRoot().child("plan")
	tail, err := p.tail.scan(ctx, p.b, filters)
	if err != nil {
		return err
	}
	st.hasMerge = p.agg != nil
	st.Plan = plan.finish()
	src := p.src
	if p.rows != nil && !p.rows.converts(tail) {
		src.floats = false
	}
	return scanPartitions(ctx, p.b.tables[0], p.env.Workers, src, marks, st, func(part int) (*selectWorker, error) {
		w, ok := p.workers.Get().(*selectWorker)
		if !ok {
			var err error
			if w, err = p.newWorker(); err != nil {
				return nil, err
			}
		}
		w.scope.Params, w.tail, w.sink, w.emitted = args, tail, sink, emitted
		if len(tail) == 1 {
			// One tail row — a single table's empty one, or §3.5's model
			// rows filtered to one each: bound once, read as constants.
			w.scope.Bind(tail[0])
		}
		if w.agg != nil {
			// This worker's own slot: nothing else touches it until the
			// single-threaded merge.
			if groups[part] == nil {
				groups[part] = make(map[string]*groupState)
			}
			w.agg.groups = groups[part]
		}
		return w, nil
	})
}

// constRow evaluates a FROM-less select list once.
func (p *PreparedSelect) constRow(ss *stmtSet, emitRow RowSink) (*sqltypes.Schema, error) {
	cols := make([]sqltypes.Column, len(ss.items))
	row := make(sqltypes.Row, len(ss.items))
	for i, ev := range ss.items {
		v, err := ev.Eval(nil)
		if err != nil {
			return nil, err
		}
		row[i] = v
		cols[i] = sqltypes.Column{Name: p.schema.Columns[i].Name, Type: v.Type()}
	}
	return &sqltypes.Schema{Columns: cols}, emitRow(row)
}

// selectWorker is the consumer of a partition scan, used by one
// goroutine at a time: its compiled evaluators (which carry scratch
// buffers, read `?` slots and the bound join-tail row from scope and
// count their UDF calls there) and row buffers, pooled across
// partitions and executions. Each driving-table row is consumed in
// place, once per tail row: the tail's columns compile to reads of the
// row scope binds. What passes the residual WHERE is projected into the
// worker's batch or accumulated into the partition's group states.
type selectWorker struct {
	ps    *PreparedSelect
	scope expr.Scope
	where expr.Evaluator // nil when no residual predicate
	tail  []sqltypes.Row // this execution's join tail: [{}] for a single table

	items []expr.Evaluator // projection
	vec   *vecPrograms     // the projection's block form; nil unless ps.vec
	calls []expr.FloatCall // the projection's float-row calls by item; set when ps.rows is
	// The projection's output: batch[:n] are the projected rows not yet
	// handed to sink. The rows are the worker's own, allocated once; the
	// batch goes to sink when it is full and when the partition ends, and
	// emitted counts what sink accepted, once per batch.
	batch   []sqltypes.Row
	n       int
	sink    batchSink
	emitted *atomic.Int64

	agg *aggWorker // nil for projections
}

func (p *PreparedSelect) newWorker() (*selectWorker, error) {
	w := &selectWorker{ps: p, scope: expr.Scope{Funcs: p.env.Funcs}}
	if len(p.b.tables) > 1 {
		w.scope.TailAt = p.b.Entries[1].Offset
	}
	var err error
	if p.tail.residual != nil {
		if w.where, err = w.scope.Compile(p.tail.residual, p.b.Ordinal); err != nil {
			return nil, err
		}
	}
	if p.agg != nil {
		w.agg, err = p.agg.newWorker(&w.scope, p.b.Ordinal)
		return w, err
	}
	if w.items, err = compileAll(p.exprs, p.b.Ordinal, &w.scope); err != nil {
		return nil, err
	}
	k := len(w.items)
	buf := make(sqltypes.Row, batchRows*k)
	w.batch = make([]sqltypes.Row, batchRows)
	for i := range w.batch {
		w.batch[i] = buf[i*k : (i+1)*k : (i+1)*k]
	}
	if p.vec != nil {
		w.vec, err = p.vec.compile()
	}
	if p.rows != nil {
		w.placeRows()
	}
	return w, err
}

// placeRows places the worker's calls on the statement's float row.
func (w *selectWorker) placeRows() {
	rp := w.ps.rows
	w.calls = make([]expr.FloatCall, len(w.items))
	for i, ev := range w.items {
		if rp.pos[i] < 0 {
			w.calls[i], _ = expr.AsFloatCall(ev)
			w.calls[i].Place(rp.at)
		}
	}
}

// row consumes one driving-table row. r is read-only and not retained:
// on disk it is the decoder's buffer, which the next row overwrites, in
// memory the stored row itself. It is evaluated in place, joined with
// the tail row scope has bound — once per execution for a tail of one
// row, here for each row of a longer one — and everything downstream
// copies the values it keeps (group keys, DISTINCT sets, the
// projection's output row).
func (w *selectWorker) row(r sqltypes.Row) error {
	if len(w.tail) == 1 {
		return w.joined(r)
	}
	for _, t := range w.tail {
		w.scope.Bind(t)
		if err := w.joined(r); err != nil {
			return err
		}
	}
	return nil
}

// floatRow consumes one row of a float-row scan: an aggregate's
// (aggWorker.floatRow), or a projection's joined with the tail as row
// joins it.
func (w *selectWorker) floatRow(x []float64) error {
	if w.agg != nil {
		return w.agg.floatRow(x)
	}
	if len(w.tail) == 1 {
		return w.projectFloats(x)
	}
	for _, t := range w.tail {
		w.scope.Bind(t)
		if err := w.projectFloats(x); err != nil {
			return err
		}
	}
	return nil
}

// projectFloats projects float row x into the batch, each item boxed
// once: a bare column as its declared type — a BIGINT is exact, as the
// scan sends a wider one boxed — and a call as its function's Ret.
func (w *selectWorker) projectFloats(x []float64) error {
	rp, out := w.ps.rows, w.batch[w.n]
	for i, c := range w.calls {
		switch pos := rp.pos[i]; {
		case pos < 0:
			v, err := c.Eval(x)
			if err != nil {
				return err
			}
			out[i] = v
		case rp.bigint[i]:
			out[i] = sqltypes.NewBigInt(int64(x[pos]))
		default:
			out[i] = sqltypes.NewDouble(x[pos])
		}
	}
	return w.emit()
}

// joined filters r joined with the bound tail row and projects or
// accumulates it.
func (w *selectWorker) joined(r sqltypes.Row) error {
	if w.where != nil {
		keep, err := w.where.Eval(r)
		if err != nil {
			return err
		}
		if keep.IsNull() || !keep.Bool() {
			return nil
		}
	}
	if w.agg != nil {
		return w.agg.accumulate(r)
	}
	out := w.batch[w.n]
	for i, ev := range w.items {
		v, err := ev.Eval(r)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return w.emit()
}

// emit adds the row just projected into batch[n] to the batch, handing
// the batch on once it is full.
func (w *selectWorker) emit() error {
	if w.n++; w.n < len(w.batch) {
		return nil
	}
	return w.flush()
}

// flush hands the pending rows to sink and counts the rows it accepted,
// or folds an aggregate's staged float rows (aggWorker.flush). It ends
// every partition scan that succeeded.
func (w *selectWorker) flush() error {
	if w.agg != nil {
		return w.agg.flush()
	}
	if w.n == 0 {
		return nil
	}
	n, err := w.sink(w.batch[:w.n])
	w.emitted.Add(int64(n))
	w.n = 0
	return err
}

// release ends a partition scan: counters are flushed and the worker
// goes back to the pool.
func (w *selectWorker) release() {
	if w.vec != nil {
		obs.ColumnarVectorOps.Add(w.vec.ops)
		w.vec.ops = 0
	}
	if w.agg != nil {
		obs.UDFCalls.Add(w.agg.accCalls)
		w.agg.groups, w.agg.global, w.agg.accCalls = nil, nil, 0
	}
	flushCalls(&w.scope)
	w.scope.Bind(nil)
	w.tail, w.sink, w.emitted, w.n = nil, nil, nil, 0
	w.ps.workers.Put(w)
}

// flushCalls ends one use of a scope: the scalar-UDF invocations its
// evaluators made are added to engine_udf_calls_total, and the scope is
// left as its next user expects it.
func flushCalls(sc *expr.Scope) {
	obs.UDFCalls.Add(sc.Calls)
	sc.Params, sc.Calls = nil, 0
}

// BindStatementArgs deep-copies stmt with every `?` slot bound to the
// corresponding argument as a literal expression, refusing an argument
// count that does not match the slots: how statements other than a
// planned SELECT take their arguments, in db and in the coordinator.
// Without arguments stmt is returned as it is, and a `?` left in it is
// refused where it is checked.
func BindStatementArgs(stmt sqlparser.Statement, args []sqltypes.Value) (sqlparser.Statement, error) {
	if len(args) == 0 {
		return stmt, nil
	}
	if n := sqlparser.CountParams(stmt); len(args) != n {
		return nil, paramCountError(n, len(args))
	}
	lits := make([]sqlparser.Expr, len(args))
	for i, v := range args {
		lits[i] = LiteralExpr(v)
	}
	return sqlparser.BindParams(stmt, lits)
}

func paramCountError(params, args int) error {
	return fmt.Errorf("exec: statement has %d parameter(s), got %d argument(s)", params, args)
}

// LiteralExpr renders a runtime value as a literal expression node —
// the one Value → SQL literal constructor: bound `?` arguments and the
// cluster coordinator's routed rows both print through the node's
// String. Doubles print in strconv's shortest round-trip form, so a
// finite float re-parses bit-for-bit.
func LiteralExpr(v sqltypes.Value) sqlparser.Expr {
	switch v.Type() {
	case sqltypes.TypeNull:
		return &sqlparser.NullLit{}
	case sqltypes.TypeBigInt:
		n := v.Int()
		return &sqlparser.NumberLit{IsInt: true, Int: n, Float: float64(n)}
	case sqltypes.TypeDouble:
		f, _ := v.Float()
		return &sqlparser.NumberLit{Float: f}
	case sqltypes.TypeBool:
		return &sqlparser.BoolLit{Val: v.Bool()}
	default:
		return &sqlparser.StringLit{Val: v.Str()}
	}
}
