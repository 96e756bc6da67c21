package expr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

// ErrDivisionByZero is the typed error every divide-by-zero raises —
// integer and float, / and %, scalar tree walker and vector program
// alike — so callers can classify it without string matching.
var ErrDivisionByZero = errors.New("expr: division by zero")

// floatMod is the scalar evaluator's float remainder: IEEE remainder
// with the sign of the dividend (math.Mod), with a zero divisor raising
// the typed error. vecArith computes the same math.Mod on every lane and
// raises the same error for a zero divisor on a valid lane.
// The previous a - b*float64(int64(a/b)) formulation hit undefined
// int64 conversion when a/b overflowed the int64 range (and on the
// Inf quotient of b == 0), silently producing garbage.
func floatMod(a, b float64) (float64, error) {
	if b == 0 {
		return 0, ErrDivisionByZero
	}
	return math.Mod(a, b), nil
}

// constEval yields a constant.
type constEval struct{ v sqltypes.Value }

func (e constEval) Eval(sqltypes.Row) (sqltypes.Value, error) { return e.v, nil }

// colEval yields the idx-th column of the input row.
type colEval struct {
	idx  int
	name string
}

func (e colEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	if e.idx < 0 || e.idx >= len(row) {
		return sqltypes.Null, fmt.Errorf("expr: column %s (ordinal %d) out of row of width %d", e.name, e.idx, len(row))
	}
	return row[e.idx], nil
}

// negEval is unary minus.
type negEval struct{ x Evaluator }

func (e negEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.x.Eval(row)
	if err != nil || v.IsNull() {
		return sqltypes.Null, err
	}
	if v.Type() == sqltypes.TypeBigInt {
		return sqltypes.NewBigInt(-v.Int()), nil
	}
	f, ok := v.Float()
	if !ok {
		return sqltypes.Null, fmt.Errorf("expr: cannot negate %v", v)
	}
	return sqltypes.NewDouble(-f), nil
}

// notEval is three-valued logical NOT.
type notEval struct{ x Evaluator }

func (e notEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.x.Eval(row)
	if err != nil || v.IsNull() {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(!v.Bool()), nil
}

// binary operators ---------------------------------------------------

type binOp int

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv
	opMod
	opConcat
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
)

var binOps = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"||": opConcat, "=": opEq, "<>": opNe, "<": opLt, "<=": opLe,
	">": opGt, ">=": opGe, "AND": opAnd, "OR": opOr,
}

type binaryEval struct {
	op   binOp
	l, r Evaluator
}

func newBinaryEval(op string, l, r Evaluator) (Evaluator, error) {
	o, ok := binOps[op]
	if !ok {
		return nil, fmt.Errorf("expr: unknown operator %q", op)
	}
	return &binaryEval{op: o, l: l, r: r}, nil
}

func (e *binaryEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	// AND/OR need three-valued short-circuit handling before NULL checks.
	if e.op == opAnd || e.op == opOr {
		return e.evalLogic(row)
	}
	l, err := e.l.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := e.r.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	switch e.op {
	case opConcat:
		return sqltypes.NewVarChar(l.Str() + r.Str()), nil
	case opEq, opNe, opLt, opLe, opGt, opGe:
		cmp := sqltypes.Compare(l, r)
		switch e.op {
		case opEq:
			return sqltypes.NewBool(cmp == 0), nil
		case opNe:
			return sqltypes.NewBool(cmp != 0), nil
		case opLt:
			return sqltypes.NewBool(cmp < 0), nil
		case opLe:
			return sqltypes.NewBool(cmp <= 0), nil
		case opGt:
			return sqltypes.NewBool(cmp > 0), nil
		default:
			return sqltypes.NewBool(cmp >= 0), nil
		}
	}
	return evalArith(e.op, l, r)
}

func (e *binaryEval) evalLogic(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := e.l.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	// Short-circuit: FALSE AND x = FALSE; TRUE OR x = TRUE.
	if !l.IsNull() {
		if e.op == opAnd && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
		if e.op == opOr && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
	}
	r, err := e.r.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if e.op == opAnd {
		switch {
		case !r.IsNull() && !r.Bool():
			return sqltypes.NewBool(false), nil
		case l.IsNull() || r.IsNull():
			return sqltypes.Null, nil
		default:
			return sqltypes.NewBool(true), nil
		}
	}
	switch {
	case !r.IsNull() && r.Bool():
		return sqltypes.NewBool(true), nil
	case l.IsNull() || r.IsNull():
		return sqltypes.Null, nil
	default:
		return sqltypes.NewBool(false), nil
	}
}

// evalArith implements + - * / % with SQL numeric typing: two BIGINTs
// stay integral (with integer division), anything else is DOUBLE.
func evalArith(op binOp, l, r sqltypes.Value) (sqltypes.Value, error) {
	bothInt := l.Type() == sqltypes.TypeBigInt && r.Type() == sqltypes.TypeBigInt
	if bothInt {
		a, b := l.Int(), r.Int()
		switch op {
		case opAdd:
			return sqltypes.NewBigInt(a + b), nil
		case opSub:
			return sqltypes.NewBigInt(a - b), nil
		case opMul:
			return sqltypes.NewBigInt(a * b), nil
		case opDiv:
			if b == 0 {
				return sqltypes.Null, ErrDivisionByZero
			}
			return sqltypes.NewBigInt(a / b), nil
		case opMod:
			if b == 0 {
				return sqltypes.Null, ErrDivisionByZero
			}
			return sqltypes.NewBigInt(a % b), nil
		}
	}
	a, aok := l.Float()
	b, bok := r.Float()
	if !aok || !bok {
		return sqltypes.Null, fmt.Errorf("expr: non-numeric operands %v, %v", l, r)
	}
	switch op {
	case opAdd:
		return sqltypes.NewDouble(a + b), nil
	case opSub:
		return sqltypes.NewDouble(a - b), nil
	case opMul:
		return sqltypes.NewDouble(a * b), nil
	case opDiv:
		if b == 0 {
			return sqltypes.Null, ErrDivisionByZero
		}
		return sqltypes.NewDouble(a / b), nil
	case opMod:
		m, err := floatMod(a, b)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewDouble(m), nil
	}
	return sqltypes.Null, fmt.Errorf("expr: bad arithmetic op %d", op)
}

// funcEval invokes a scalar function on the arguments its plan fills.
// A function with a float body is called on floats, the unboxed gather,
// whenever every argument converts (Value.Float); any other row, and
// every function without one, takes the boxed form.
type funcEval struct {
	def    *FuncDef
	plan   ArgPlan
	floats []float64 // the float body's arguments; nil when the call is always boxed
	calls  *int64    // the owner's invocation count; nil without an owner
}

func (e *funcEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	boxed, err := e.plan.Fill(row, e.floats)
	if err != nil {
		return sqltypes.Null, err
	}
	e.count()
	if boxed != nil {
		return e.def.Fn(boxed)
	}
	f, err := e.def.Float(e.floats)
	if err != nil {
		return sqltypes.Null, err
	}
	return e.def.box(f), nil
}

// evalFloats is Eval on a float row (FloatCall): the plan fills the
// scratch from the row and the body runs on it, unboxed.
func (e *funcEval) evalFloats(frow []float64) (float64, error) {
	if err := e.plan.fillFloats(frow, e.floats); err != nil {
		return 0, err
	}
	e.count()
	return e.def.Float(e.floats)
}

// FloatCall is a compiled scalar call in its float-row form: it runs on
// a float row — the driving row's numeric columns, unboxed once — as
// well as on boxed rows. It is the call's own evaluator, not a copy:
// both forms share its plan, scratch and call count, so a scan may hand
// the one compiled call float rows and the rows they refuse in turn.
type FloatCall struct{ e *funcEval }

// AsFloatCall returns ev's float-row form, and whether it has one: ev is
// a call with a float body whose arguments are literals that convert,
// bare columns of the driving row, columns of the bound join-tail row,
// or nested calls of the same kind.
func AsFloatCall(ev Evaluator) (FloatCall, bool) {
	e, ok := ev.(*funcEval)
	if !ok || e.floats == nil {
		return FloatCall{}, false
	}
	for _, a := range e.plan.evs {
		if _, ok := AsFloatCall(a.ev); !ok {
			return FloatCall{}, false
		}
	}
	return FloatCall{e}, true
}

// Columns appends the driving-row ordinals the call and its nested
// calls gather to cols, and the bound tail-row ordinals they read to
// bound.
func (c FloatCall) Columns(cols, bound []int) ([]int, []int) {
	p := &c.e.plan
	for _, a := range p.evs {
		cols, bound = FloatCall{a.ev.(*funcEval)}.Columns(cols, bound)
	}
	for _, col := range p.cols {
		cols = append(cols, col.Ord)
	}
	for _, col := range p.bound {
		bound = append(bound, col.Ord)
	}
	return cols, bound
}

// Place fixes where the call and its nested calls read a float row: the
// driving column of ordinal o is frow[at[o]], for every o Columns names.
// Gather entries whose slots and positions both run on are one copy.
func (c FloatCall) Place(at []int) {
	p := &c.e.plan
	p.runs, p.calls = p.runs[:0], p.calls[:0]
	for _, a := range p.evs {
		n := a.ev.(*funcEval)
		FloatCall{n}.Place(at)
		p.calls = append(p.calls, argCall{a.slot, n})
	}
	for _, col := range p.cols {
		pos := at[col.Ord]
		if k := len(p.runs) - 1; k >= 0 && p.runs[k].slot+p.runs[k].n == col.Slot && p.runs[k].pos+p.runs[k].n == pos {
			p.runs[k].n++
			continue
		}
		p.runs = append(p.runs, argRun{col.Slot, pos, 1})
	}
}

// Eval runs a placed call on one float row, its result boxed as its
// function's Ret: the value Eval returns for the same row boxed.
func (c FloatCall) Eval(frow []float64) (sqltypes.Value, error) {
	f, err := c.e.evalFloats(frow)
	if err != nil {
		return sqltypes.Null, err
	}
	return c.e.def.box(f), nil
}

// count records one invocation of a UDF: in the owner's plain counter,
// which the owner flushes, or for an evaluator without an owner in
// engine_udf_calls_total itself.
func (e *funcEval) count() {
	switch {
	case !e.def.UDF:
	case e.calls != nil:
		*e.calls++
	default:
		obs.UDFCalls.Inc()
	}
}

// caseEval is a searched CASE.
type caseWhen struct{ cond, then Evaluator }

type caseEval struct {
	whens []caseWhen
	els   Evaluator
}

func (e *caseEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	for _, w := range e.whens {
		c, err := w.cond.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if !c.IsNull() && c.Bool() {
			return w.then.Eval(row)
		}
	}
	if e.els != nil {
		return e.els.Eval(row)
	}
	return sqltypes.Null, nil
}

// isNullEval is IS [NOT] NULL.
type isNullEval struct {
	x      Evaluator
	negate bool
}

func (e isNullEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.x.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(v.IsNull() != e.negate), nil
}

// castEval is CAST(x AS t).
type castEval struct {
	x Evaluator
	t sqltypes.Type
}

func (e castEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.x.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.Coerce(v, e.t)
}

// betweenEval is x [NOT] BETWEEN lo AND hi.
type betweenEval struct {
	x, lo, hi Evaluator
	negate    bool
}

func (e betweenEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	x, err := e.x.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	lo, err := e.lo.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	hi, err := e.hi.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqltypes.Null, nil
	}
	in := sqltypes.Compare(x, lo) >= 0 && sqltypes.Compare(x, hi) <= 0
	return sqltypes.NewBool(in != e.negate), nil
}

// inEval is x [NOT] IN (list).
type inEval struct {
	x      Evaluator
	list   []Evaluator
	negate bool
}

func (e inEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	x, err := e.x.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if x.IsNull() {
		return sqltypes.Null, nil
	}
	sawNull := false
	for _, item := range e.list {
		v, err := item.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Compare(x, v) == 0 {
			return sqltypes.NewBool(!e.negate), nil
		}
	}
	if sawNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(e.negate), nil
}
