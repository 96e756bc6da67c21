package exec

import (
	"errors"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// The block source (offered to scans of on-disk tables unless
// Env.Columnar declines it) swaps the row-at-a-time interpreter for
// block-at-a-time kernels wherever that is provably equivalent:
// float-row aggregates gather a partition's sealed chunks into the tiles
// float rows fill (core.FillTile), and simple projections run vector
// programs over them; the rows after the chunks reach the same worker
// as float or boxed rows.
// Every other statement shape falls back to the row path, counted by
// engine_columnar_fallbacks_total when it is prepared, so the source
// can change performance but never results.

// errNotVectorizable marks projections the vector path declines (shape
// restrictions beyond CompileVector's, e.g. constant-only items).
var errNotVectorizable = errors.New("exec: projection not vectorizable") //statlint:ignore udfcontract a sentinel error, not query state

// vecPlan is the block form of a single-table projection: the
// expressions every worker compiles to vector programs, plus the union
// of referenced column ordinals — the scan's block columns — with each
// ordinal's slot in the delivered block.
type vecPlan struct {
	exprs    []sqlparser.Expr
	residual sqlparser.Expr
	resolve  expr.Resolver
	numeric  func(int) bool
	cols     []int
	slot     map[int]int
}

// planVec validates that a single-table projection can run on the
// vector path: every select item compiles to a numeric vector program
// referencing at least one column (constant-only items keep their
// scalar typing — SELECT 1+1 must stay a BIGINT), and the WHERE
// residual, if any, compiles to a predicate program. Only DOUBLE
// columns are vectorizable here: projecting a BIGINT column through
// float64 blocks would retype the output.
func planVec(exprs []sqlparser.Expr, residual sqlparser.Expr, b *binding) (*vecPlan, error) {
	schema := b.tables[0].Schema()
	vp := &vecPlan{exprs: exprs, residual: residual, resolve: b.Ordinal, slot: map[int]int{}}
	vp.numeric = func(ord int) bool {
		return ord >= 0 && ord < schema.Len() && schema.Columns[ord].Type == sqltypes.TypeDouble
	}
	v, err := vp.compile()
	if err != nil {
		return nil, err
	}
	progs := v.items
	if v.where != nil {
		progs = append([]*expr.VectorProgram{v.where}, progs...)
	}
	for _, p := range progs {
		for _, c := range p.Cols() {
			if _, ok := vp.slot[c]; !ok {
				vp.slot[c] = len(vp.cols)
				vp.cols = append(vp.cols, c)
			}
		}
	}
	return vp, nil
}

// vecPrograms is one worker's compiled block form. Programs carry
// evaluation buffers, like the row source's evaluators, so every worker
// compiles its own.
type vecPrograms struct {
	plan  *vecPlan
	where *expr.VectorProgram // nil when no residual predicate
	items []*expr.VectorProgram
	// Per-program views of the union block, in the program's column order.
	whereView vecView
	itemViews []vecView
	mask      []bool  // the WHERE's true lanes, the items' mask
	sel       []int32 // the rows to emit, ascending
	vals      [][]float64
	valid     [][]bool
	ops       int64 // vector ops since the last release
}

type vecView struct {
	cols  [][]float64
	valid [][]bool
}

func newVecView(p *expr.VectorProgram) vecView {
	n := len(p.Cols())
	return vecView{cols: make([][]float64, n), valid: make([][]bool, n)}
}

func (vp *vecPlan) compile() (*vecPrograms, error) {
	v := &vecPrograms{plan: vp}
	if vp.residual != nil {
		w, err := expr.CompileVector(vp.residual, vp.resolve, vp.numeric)
		if err != nil {
			return nil, err
		}
		if !w.IsBool() {
			return nil, errNotVectorizable
		}
		v.where, v.whereView = w, newVecView(w)
	}
	for _, e := range vp.exprs {
		p, err := expr.CompileVector(e, vp.resolve, vp.numeric)
		if err != nil {
			return nil, err
		}
		if p.IsBool() || len(p.Cols()) == 0 {
			return nil, errNotVectorizable
		}
		v.items = append(v.items, p)
		v.itemViews = append(v.itemViews, newVecView(p))
	}
	n := len(v.items)
	v.vals, v.valid = make([][]float64, n), make([][]bool, n)
	return v, nil
}

// fill points a program's view at its columns of blk.
func (v *vecPrograms) fill(p *expr.VectorProgram, blk *storage.Block, view vecView) {
	for i, ord := range p.Cols() {
		s := v.plan.slot[ord]
		view.cols[i] = blk.Cols[s][:blk.Rows]
		view.valid[i] = blk.Valid[s][:blk.Rows]
	}
}

// block consumes one block: an aggregate folds it (aggWorker.block); a
// projection evaluates its predicate program, turns the truth vector
// into a selection of the rows it keeps, evaluates every item program
// under the same lanes as a mask, and emits the selected rows into the
// worker's batch, as the row consumer does.
func (w *selectWorker) block(blk *storage.Block) error {
	if w.agg != nil {
		return w.agg.block(blk)
	}
	v := w.vec
	var mask []bool // nil: every row
	if v.where != nil {
		v.fill(v.where, blk, v.whereView)
		truth, err := v.where.EvalBool(v.whereView.cols, v.whereView.valid, blk.Rows, nil)
		if err != nil {
			return err
		}
		v.ops += v.where.Ops()
		if v.selection(truth) == 0 {
			return nil
		}
		mask = v.mask
	} else {
		v.every(blk.Rows)
	}
	for i, p := range v.items {
		v.fill(p, blk, v.itemViews[i])
		vals, ok, err := p.EvalNum(v.itemViews[i].cols, v.itemViews[i].valid, blk.Rows, mask)
		if err != nil {
			return err
		}
		v.ops += p.Ops()
		v.vals[i], v.valid[i] = vals, ok
	}
	for _, r := range v.sel {
		out := w.batch[w.n]
		for i := range v.items {
			out[i] = sqltypes.Null
			if v.valid[i][r] {
				out[i] = sqltypes.NewDouble(v.vals[i][r])
			}
		}
		if err := w.emit(); err != nil {
			return err
		}
	}
	return nil
}

// selection sets mask to the lanes where truth is TRUE and sel to their
// rows, without a branch per lane, and returns how many there are.
func (v *vecPrograms) selection(truth []int8) int {
	if cap(v.sel) < len(truth) {
		v.mask, v.sel = make([]bool, len(truth)), make([]int32, len(truth))
	}
	mask, sel := v.mask[:len(truth)], v.sel[:len(truth)]
	n := 0
	for r, t := range truth {
		mask[r] = t == expr.TruthTrue
		sel[n] = int32(r)
		n += b2i(mask[r])
	}
	v.mask, v.sel = mask, sel[:n]
	return n
}

// every selects all rows of a block.
func (v *vecPrograms) every(rows int) {
	if cap(v.sel) < rows {
		v.mask, v.sel = make([]bool, rows), make([]int32, rows)
	}
	v.sel = v.sel[:rows]
	for r := range v.sel {
		v.sel[r] = int32(r)
	}
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
