package expr

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/engine/sqlparser"
)

// The vector program is the columnar counterpart of the Evaluator tree:
// instead of walking the tree once per row, a compiled program walks it
// once per *block*, each node producing a whole column of results. Only
// the shapes the batch path can execute exactly like the row path are
// compilable — DOUBLE column references, numeric literals, arithmetic,
// comparisons, three-valued AND/OR/NOT and IS [NOT] NULL. Everything
// else (functions, CASE, IN, BETWEEN, CAST, VARCHAR/BIGINT columns,
// parameters) fails compilation with errVectorUnsupported and the
// caller falls back to the tree walker, so vectorization is always an
// optimization, never a semantics change.
//
// Numeric results are (vals []float64, valid []bool) pairs; boolean
// results are Kleene truth vectors ([]int8: 0 false, 1 true, 2 NULL).
// Every node evaluates under an *active-lane mask*: AND/OR mask their
// right operand to the lanes the row path would reach (left not already
// deciding), and projections to the lanes the WHERE kept — so a
// division by zero in a lane the row path never evaluates cannot raise
// a spurious error. Division by zero on an active lane
// raises the same typed ErrDivisionByZero the scalar evaluator does.

// errVectorUnsupported is returned by CompileVector for expression
// shapes the vector program cannot execute; callers fall back to the
// scalar path.
var errVectorUnsupported = fmt.Errorf("expr: expression not vectorizable")

// IsVectorUnsupported classifies CompileVector failures that simply
// mean "use the row path" (as opposed to genuine compile errors such as
// unresolvable columns).
func IsVectorUnsupported(err error) bool { return err == errVectorUnsupported }

// Kleene truth values, as produced by EvalBool truth vectors.
const (
	TruthFalse int8 = 0
	TruthTrue  int8 = 1
	TruthNull  int8 = 2

	vFalse = TruthFalse
	vTrue  = TruthTrue
	vNull  = TruthNull
)

// vecCtx is the per-block evaluation context shared by a program's
// nodes: the input columns (indexed by slot) and the live row count.
type vecCtx struct {
	rows  int
	cols  [][]float64
	valid [][]bool
	ops   int64 // lanes processed, reported to the vector-ops counter
}

type numNode interface {
	evalNum(c *vecCtx, mask []bool) (vals []float64, valid []bool, err error)
}

type boolNode interface {
	evalBool(c *vecCtx, mask []bool) (truth []int8, err error)
}

// VectorProgram is a compiled batch expression. A program is stateful
// (nodes reuse output buffers across blocks) and therefore not safe for
// concurrent use — compile one per partition worker, exactly like
// scalar Evaluators.
type VectorProgram struct {
	num  numNode  // set when the expression is numeric-typed
	bool boolNode // set when the expression is boolean-typed
	cols []int    // referenced flat ordinals, in first-reference order
	ctx  vecCtx
	mask []bool
}

// IsBool reports whether the program produces a truth vector (a
// predicate) rather than a numeric column.
func (p *VectorProgram) IsBool() bool { return p.bool != nil }

// Cols returns the flat column ordinals the program reads, in slot
// order: the caller supplies exactly these columns to EvalNum/EvalBool.
func (p *VectorProgram) Cols() []int { return p.cols }

// begin primes the shared context for one block.
func (p *VectorProgram) begin(cols [][]float64, valid [][]bool, rows int, mask []bool) []bool {
	p.ctx.rows = rows
	p.ctx.cols = cols
	p.ctx.valid = valid
	p.ctx.ops += int64(rows)
	if mask != nil {
		return mask
	}
	if len(p.mask) < rows { // filled once, as no node writes a mask
		p.mask = make([]bool, rows)
		for i := range p.mask {
			p.mask[i] = true
		}
	}
	return p.mask[:rows]
}

// Ops drains the count of lanes the program has processed since the
// last call; callers feed it to the vector-ops counter.
func (p *VectorProgram) Ops() int64 {
	n := p.ctx.ops
	p.ctx.ops = 0
	return n
}

// EvalNum evaluates a numeric program over one block. cols/valid are
// indexed by Cols() slot; mask (nil = all lanes) gates which lanes are
// computed — unmasked lanes hold unspecified values. The returned
// slices are owned by the program and valid until the next call.
func (p *VectorProgram) EvalNum(cols [][]float64, valid [][]bool, rows int, mask []bool) ([]float64, []bool, error) {
	if p.num == nil {
		return nil, nil, fmt.Errorf("expr: vector program is boolean-typed")
	}
	mask = p.begin(cols, valid, rows, mask)
	return p.num.evalNum(&p.ctx, mask)
}

// EvalBool evaluates a predicate program over one block; see EvalNum.
func (p *VectorProgram) EvalBool(cols [][]float64, valid [][]bool, rows int, mask []bool) ([]int8, error) {
	if p.bool == nil {
		return nil, fmt.Errorf("expr: vector program is numeric-typed")
	}
	mask = p.begin(cols, valid, rows, mask)
	return p.bool.evalBool(&p.ctx, mask)
}

// CompileVector compiles e into a vector program. resolve maps column
// references to flat ordinals (same contract as Compile); vectorizable
// reports whether a flat ordinal is a DOUBLE column the block scan can
// supply. Unsupported shapes return errVectorUnsupported.
func CompileVector(e sqlparser.Expr, resolve Resolver, vectorizable func(ordinal int) bool) (*VectorProgram, error) {
	vc := &vecCompiler{resolve: resolve, vectorizable: vectorizable, slots: map[int]int{}}
	p := &VectorProgram{}
	num, bol, err := vc.compile(e)
	if err != nil {
		return nil, err
	}
	p.num, p.bool = num, bol
	p.cols = vc.cols
	return p, nil
}

type vecCompiler struct {
	resolve      Resolver
	vectorizable func(int) bool
	cols         []int
	slots        map[int]int // flat ordinal -> slot
}

// compile returns exactly one of (numNode, boolNode).
func (vc *vecCompiler) compile(e sqlparser.Expr) (numNode, boolNode, error) {
	switch e := e.(type) {
	case *sqlparser.NumberLit:
		v := e.Float
		if e.IsInt {
			v = float64(e.Int)
		}
		return &vecConst{v: v}, nil, nil
	case *sqlparser.ColumnRef:
		if vc.resolve == nil {
			return nil, nil, errVectorUnsupported
		}
		idx, err := vc.resolve(e.Table, e.Name)
		if err != nil {
			return nil, nil, err
		}
		if !vc.vectorizable(idx) {
			return nil, nil, errVectorUnsupported
		}
		slot, ok := vc.slots[idx]
		if !ok {
			slot = len(vc.cols)
			vc.slots[idx] = slot
			vc.cols = append(vc.cols, idx)
		}
		return vecCol{slot: slot}, nil, nil
	case *sqlparser.UnaryExpr:
		num, bol, err := vc.compile(e.X)
		if err != nil {
			return nil, nil, err
		}
		switch e.Op {
		case "-":
			if num == nil {
				return nil, nil, errVectorUnsupported
			}
			return &vecNeg{x: num}, nil, nil
		case "NOT":
			if bol == nil {
				return nil, nil, errVectorUnsupported
			}
			return nil, &vecNot{x: bol}, nil
		}
		return nil, nil, errVectorUnsupported
	case *sqlparser.BinaryExpr:
		op, ok := binOps[e.Op]
		if !ok {
			return nil, nil, errVectorUnsupported
		}
		if op == opConcat {
			return nil, nil, errVectorUnsupported
		}
		ln, lb, err := vc.compile(e.L)
		if err != nil {
			return nil, nil, err
		}
		rn, rb, err := vc.compile(e.R)
		if err != nil {
			return nil, nil, err
		}
		switch op {
		case opAdd, opSub, opMul, opDiv, opMod:
			if ln == nil || rn == nil {
				return nil, nil, errVectorUnsupported
			}
			return &vecArith{op: op, l: ln, r: rn}, nil, nil
		case opEq, opNe, opLt, opLe, opGt, opGe:
			if ln == nil || rn == nil {
				return nil, nil, errVectorUnsupported
			}
			return nil, &vecCmp{op: op, l: ln, r: rn}, nil
		case opAnd, opOr:
			if lb == nil || rb == nil {
				return nil, nil, errVectorUnsupported
			}
			return nil, &vecLogic{and: op == opAnd, l: lb, r: rb}, nil
		}
		return nil, nil, errVectorUnsupported
	case *sqlparser.IsNullExpr:
		num, _, err := vc.compile(e.X)
		if err != nil {
			return nil, nil, err
		}
		if num == nil {
			return nil, nil, errVectorUnsupported
		}
		return nil, &vecIsNull{x: num, negate: e.Negate}, nil
	default:
		return nil, nil, errVectorUnsupported
	}
}

// ---- nodes ---------------------------------------------------------
//
// A node's operator switch runs once per block, outside its lane loop,
// and the loop fills every lane without branching on the data: bool
// lanes combine as bytes with & and |, and truth values come from
// tables. Lanes outside the mask are computed too, from whatever their
// operands hold, and are unspecified; a mask only decides validity and
// which zero divisors raise.

// lane returns buf resized to rows, reallocated only when it must grow.
func lane[T any](buf *[]T, rows int) []T {
	if cap(*buf) < rows {
		*buf = make([]T, rows)
	}
	return (*buf)[:rows]
}

// laneBytes views a bool lane as its bytes, each 0 or 1.
func laneBytes(b []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// b2u is 1 for true and 0 for false; it compiles to a flag set, not a
// branch.
func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// vecConst broadcasts a literal. Its lanes are filled when they grow,
// not on every block: nothing writes through a node's result.
type vecConst struct {
	v     float64
	vals  []float64
	valid []bool
}

func (n *vecConst) evalNum(c *vecCtx, mask []bool) ([]float64, []bool, error) {
	if len(n.vals) < c.rows {
		n.vals, n.valid = make([]float64, c.rows), make([]bool, c.rows)
		for i := range n.vals {
			n.vals[i], n.valid[i] = n.v, true
		}
	}
	c.ops += int64(c.rows)
	return n.vals[:c.rows], n.valid[:c.rows], nil
}

// vecCol reads an input column in place (no copy).
type vecCol struct{ slot int }

func (n vecCol) evalNum(c *vecCtx, mask []bool) ([]float64, []bool, error) {
	return c.cols[n.slot], c.valid[n.slot], nil
}

type vecNeg struct {
	x     numNode
	vals  []float64
	valid []bool
}

func (n *vecNeg) evalNum(c *vecCtx, mask []bool) ([]float64, []bool, error) {
	xv, xok, err := n.x.evalNum(c, mask)
	if err != nil {
		return nil, nil, err
	}
	vals, valid := lane(&n.vals, c.rows), lane(&n.valid, c.rows)
	xv = xv[:len(vals)]
	vb, mb, xb := laneBytes(valid), laneBytes(mask)[:len(vals)], laneBytes(xok)[:len(vals)]
	for r := range vals {
		vals[r] = -xv[r]
		vb[r] = mb[r] & xb[r]
	}
	c.ops += int64(c.rows)
	return vals, valid, nil
}

type vecArith struct {
	op    binOp
	l, r  numNode
	vals  []float64
	valid []bool
}

// evalNum computes every lane; a lane is valid where it is masked in
// and both operands are present, and only such a lane's zero divisor
// raises ErrDivisionByZero, as the row path divides only there. A
// remainder is math.Mod, as floatMod's.
func (n *vecArith) evalNum(c *vecCtx, mask []bool) ([]float64, []bool, error) {
	lv, lok, err := n.l.evalNum(c, mask)
	if err != nil {
		return nil, nil, err
	}
	rv, rok, err := n.r.evalNum(c, mask)
	if err != nil {
		return nil, nil, err
	}
	vals, valid := lane(&n.vals, c.rows), lane(&n.valid, c.rows)
	lv, rv = lv[:len(vals)], rv[:len(vals)]
	vb := laneBytes(valid)
	mb, lb, rb := laneBytes(mask)[:len(vb)], laneBytes(lok)[:len(vb)], laneBytes(rok)[:len(vb)]
	for r := range vb {
		vb[r] = mb[r] & lb[r] & rb[r]
	}
	c.ops += int64(c.rows)
	var zero byte // a valid lane's divisor was zero
	switch n.op {
	case opAdd:
		for r := range vals {
			vals[r] = lv[r] + rv[r]
		}
	case opSub:
		for r := range vals {
			vals[r] = lv[r] - rv[r]
		}
	case opMul:
		for r := range vals {
			vals[r] = lv[r] * rv[r]
		}
	case opDiv:
		for r := range vals {
			vals[r] = lv[r] / rv[r]
			zero |= vb[r] & b2u(rv[r] == 0)
		}
	case opMod:
		for r := range vals {
			vals[r] = math.Mod(lv[r], rv[r])
			zero |= vb[r] & b2u(rv[r] == 0)
		}
	}
	if zero != 0 {
		return nil, nil, ErrDivisionByZero
	}
	return vals, valid, nil
}

// cmpTruth[op-opEq][lt | gt<<1 | ok<<2] is the truth of a comparison
// whose operands order below (lt), above (gt) or neither — equal, or a
// NaN, which sqltypes.Compare orders equal to everything — and are both
// present (ok); NULL when they are not.
var cmpTruth = func() (t [opGe - opEq + 1][8]int8) {
	holds := [...]func(cmp int) bool{
		opEq - opEq: func(c int) bool { return c == 0 },
		opNe - opEq: func(c int) bool { return c != 0 },
		opLt - opEq: func(c int) bool { return c < 0 },
		opLe - opEq: func(c int) bool { return c <= 0 },
		opGt - opEq: func(c int) bool { return c > 0 },
		opGe - opEq: func(c int) bool { return c >= 0 },
	}
	for op, h := range holds {
		for i := range t[op] {
			cmp := [4]int{0, -1, 1, 0}[i&3]
			switch {
			case i < 4:
				t[op][i] = vNull
			case h(cmp):
				t[op][i] = vTrue
			default:
				t[op][i] = vFalse
			}
		}
	}
	return t
}()

type vecCmp struct {
	op    binOp
	l, r  numNode
	truth []int8
}

func (n *vecCmp) evalBool(c *vecCtx, mask []bool) ([]int8, error) {
	lv, lok, err := n.l.evalNum(c, mask)
	if err != nil {
		return nil, err
	}
	rv, rok, err := n.r.evalNum(c, mask)
	if err != nil {
		return nil, err
	}
	truth := lane(&n.truth, c.rows)
	lv, rv = lv[:len(truth)], rv[:len(truth)]
	lb, rb := laneBytes(lok)[:len(truth)], laneBytes(rok)[:len(truth)]
	tab := &cmpTruth[n.op-opEq]
	for r := range truth {
		i := b2u(lv[r] < rv[r]) | b2u(lv[r] > rv[r])<<1 | (lb[r]&rb[r])<<2
		truth[r] = tab[i&7]
	}
	c.ops += int64(c.rows)
	return truth, nil
}

// kleeneAnd and kleeneOr are the three-valued connectives, indexed by
// left<<2 | right (index 3 of either side never occurs).
var kleeneAnd, kleeneOr = func() (and, or [16]int8) {
	// Ordered false < NULL < true, AND is the lesser value, OR the greater.
	rank := [4]int8{vFalse: 0, vNull: 1, vTrue: 2, 3: 1}
	byRank := [3]int8{vFalse, vNull, vTrue}
	for i := range and {
		l, r := rank[i>>2], rank[i&3]
		and[i], or[i] = byRank[min(l, r)], byRank[max(l, r)]
	}
	return and, or
}()

type vecLogic struct {
	and   bool
	l, r  boolNode
	truth []int8
	rmask []bool
}

func (n *vecLogic) evalBool(c *vecCtx, mask []bool) ([]int8, error) {
	lt, err := n.l.evalBool(c, mask)
	if err != nil {
		return nil, err
	}
	truth, rmask := lane(&n.truth, c.rows), lane(&n.rmask, c.rows)
	lt = lt[:len(truth)]
	// Short-circuit-aware masking: the right operand is evaluated only
	// on lanes the row path would evaluate it — where the left side did
	// not already decide. A division by zero hiding behind `x <> 0 AND
	// 1/x > 2` therefore cannot fire on the x = 0 lanes.
	short, tab := vFalse, &kleeneAnd
	if !n.and {
		short, tab = vTrue, &kleeneOr
	}
	mb, rmb := laneBytes(mask)[:len(truth)], laneBytes(rmask)
	var need byte
	for r := range rmb {
		rmb[r] = mb[r] & b2u(lt[r] != short)
		need |= rmb[r]
	}
	c.ops += int64(c.rows)
	if need == 0 { // every masked-in lane is decided already
		copy(truth, lt)
		return truth, nil
	}
	rt, err := n.r.evalBool(c, rmask)
	if err != nil {
		return nil, err
	}
	rt = rt[:len(truth)]
	for r := range truth {
		truth[r] = tab[(lt[r]&3)<<2|rt[r]&3]
	}
	return truth, nil
}

type vecNot struct {
	x     boolNode
	truth []int8
}

// notTruth maps a truth value to its negation (index 3 never occurs).
var notTruth = [4]int8{vFalse: vTrue, vTrue: vFalse, vNull: vNull, 3: vNull}

func (n *vecNot) evalBool(c *vecCtx, mask []bool) ([]int8, error) {
	xt, err := n.x.evalBool(c, mask)
	if err != nil {
		return nil, err
	}
	truth := lane(&n.truth, c.rows)
	xt = xt[:len(truth)]
	for r := range truth {
		truth[r] = notTruth[xt[r]&3]
	}
	c.ops += int64(c.rows)
	return truth, nil
}

type vecIsNull struct {
	x      numNode
	negate bool
	truth  []int8
}

func (n *vecIsNull) evalBool(c *vecCtx, mask []bool) ([]int8, error) {
	_, xok, err := n.x.evalNum(c, mask)
	if err != nil {
		return nil, err
	}
	truth := lane(&n.truth, c.rows)
	// IS NULL is true where the operand is absent, IS NOT NULL where it
	// is present.
	flip := b2u(!n.negate)
	xb := laneBytes(xok)[:len(truth)]
	for r := range truth {
		truth[r] = int8(xb[r] ^ flip)
	}
	c.ops += int64(c.rows)
	return truth, nil
}
