package expr

import (
	"fmt"
	"strings"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// Resolver maps a (possibly qualified) column reference to an ordinal
// in the flattened input row. The executor supplies one per plan node.
type Resolver func(table, column string) (int, error)

// Evaluator is a compiled expression: it produces one value per input
// row. Implementations form a tree that the engine walks per row — the
// interpreted evaluation the paper contrasts with compiled UDFs.
type Evaluator interface {
	Eval(row sqltypes.Row) (sqltypes.Value, error)
}

// Compile turns a parsed expression into an evaluator. Column
// references are resolved through resolve; scalar function calls are
// looked up in funcs. Aggregate function calls must have been replaced
// by the executor before compilation — encountering one here is an
// error. An evaluator compiled here has no owner: `?` is refused, and
// each scalar-UDF invocation is added to engine_udf_calls_total at once.
func Compile(e sqlparser.Expr, resolve Resolver, funcs *Registry) (Evaluator, error) {
	c := &compiler{resolve: resolve, funcs: funcs}
	return c.compile(e)
}

// Scope is what the evaluators of one owner — a partition worker, a
// statement's serial set — share besides the row: the bound `?`
// arguments they read, the join-tail row they read, and the count of
// scalar-UDF invocations they make. The owner runs its evaluators from
// one goroutine at a time, sets Params before each execution (the
// compiled tree never needs recompiling), and when done adds Calls to
// engine_udf_calls_total and zeroes it, so a call on the per-row path
// writes no shared cache line.
type Scope struct {
	Funcs  *Registry
	Params []sqltypes.Value
	Calls  int64
	// TailAt is the flat-row ordinal at which a join tail starts; 0 means
	// the owner has none. A column at or past it compiles to a read of the
	// tail row Bind bound last, so the row an evaluator is given is only
	// the driving table's.
	TailAt int
	tail   sqltypes.Row
	gen    uint64 // advanced by every Bind; 0 until the first
}

// Bind makes t the join-tail row the owner's evaluators read until the
// next Bind. Argument plans notice the new binding by its generation and
// refill their bound slots on their next call.
func (s *Scope) Bind(t sqltypes.Row) {
	s.tail = t
	s.gen++
}

// Compile is the package's Compile for an evaluator s owns.
func (s *Scope) Compile(e sqlparser.Expr, resolve Resolver) (Evaluator, error) {
	c := &compiler{resolve: resolve, funcs: s.Funcs, scope: s}
	return c.compile(e)
}

// PlanArgs compiles the argument list of a call the owner of s makes
// itself — the executor's aggregate calls. Scalar calls inside an
// expression get the same plan from Compile.
func (s *Scope) PlanArgs(args []sqlparser.Expr, resolve Resolver) (ArgPlan, error) {
	c := &compiler{resolve: resolve, funcs: s.Funcs, scope: s}
	return c.planArgs(args)
}

type compiler struct {
	resolve Resolver
	funcs   *Registry
	scope   *Scope // nil for an evaluator without an owner
}

func (c *compiler) compile(e sqlparser.Expr) (Evaluator, error) {
	switch e := e.(type) {
	case *sqlparser.NumberLit:
		if e.IsInt {
			return constEval{sqltypes.NewBigInt(e.Int)}, nil
		}
		return constEval{sqltypes.NewDouble(e.Float)}, nil
	case *sqlparser.StringLit:
		return constEval{sqltypes.NewVarChar(e.Val)}, nil
	case *sqlparser.NullLit:
		return constEval{sqltypes.Null}, nil
	case *sqlparser.BoolLit:
		return constEval{sqltypes.NewBool(e.Val)}, nil
	case *sqlparser.ColumnRef:
		if c.resolve == nil {
			return nil, fmt.Errorf("expr: column %s not allowed here", e)
		}
		idx, err := c.resolve(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		if s := c.scope; s != nil && s.TailAt > 0 && idx >= s.TailAt {
			return boundEval{idx: idx - s.TailAt, name: e.String(), scope: s}, nil
		}
		return colEval{idx: idx, name: e.String()}, nil
	case *sqlparser.ParamRef:
		if c.scope == nil {
			return nil, fmt.Errorf("expr: ? parameter not allowed here (statement is not prepared)")
		}
		return paramEval{idx: e.Index, scope: c.scope}, nil
	case *sqlparser.UnaryExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			return negEval{x}, nil
		case "NOT":
			return notEval{x}, nil
		}
		return nil, fmt.Errorf("expr: unknown unary operator %q", e.Op)
	case *sqlparser.BinaryExpr:
		l, err := c.compile(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(e.R)
		if err != nil {
			return nil, err
		}
		return newBinaryEval(e.Op, l, r)
	case *sqlparser.FuncCall:
		return c.compileFunc(e)
	case *sqlparser.CaseExpr:
		return c.compileCase(e)
	case *sqlparser.IsNullExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		return isNullEval{x: x, negate: e.Negate}, nil
	case *sqlparser.CastExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		t, err := sqltypes.ParseType(e.Type)
		if err != nil {
			return nil, err
		}
		return castEval{x: x, t: t}, nil
	case *sqlparser.BetweenExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(e.Hi)
		if err != nil {
			return nil, err
		}
		return betweenEval{x: x, lo: lo, hi: hi, negate: e.Negate}, nil
	case *sqlparser.InExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		list := make([]Evaluator, len(e.List))
		for i, item := range e.List {
			ev, err := c.compile(item)
			if err != nil {
				return nil, err
			}
			list[i] = ev
		}
		return inEval{x: x, list: list, negate: e.Negate}, nil
	default:
		return nil, fmt.Errorf("expr: unsupported expression %T", e)
	}
}

// paramEval reads one `?` slot of its owner's bound arguments.
type paramEval struct {
	idx   int
	scope *Scope
}

func (p paramEval) Eval(sqltypes.Row) (sqltypes.Value, error) {
	vals := p.scope.Params
	if p.idx < 0 || p.idx >= len(vals) {
		return sqltypes.Null, fmt.Errorf("expr: parameter %d is not bound (%d bound)", p.idx+1, len(vals))
	}
	return vals[p.idx], nil
}

// boundEval reads one column of its owner's bound join-tail row.
type boundEval struct {
	idx   int
	name  string
	scope *Scope
}

func (b boundEval) Eval(sqltypes.Row) (sqltypes.Value, error) {
	t := b.scope.tail
	if b.idx >= len(t) {
		return sqltypes.Null, fmt.Errorf("expr: column %s (tail ordinal %d) out of a bound tail row of width %d", b.name, b.idx, len(t))
	}
	return t[b.idx], nil
}

// aggregateNames are the built-in SQL aggregates; aggregate UDFs extend
// the set through the udf registry (see IsAggregate).
var aggregateNames = map[string]bool{
	"sum": true, "count": true, "avg": true, "min": true, "max": true,
}

func (c *compiler) compileFunc(e *sqlparser.FuncCall) (Evaluator, error) {
	name := strings.ToLower(e.Name)
	if aggregateNames[name] {
		return nil, fmt.Errorf("expr: aggregate %s() not allowed in this context", name)
	}
	def, ok := c.funcs.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %q", e.Name)
	}
	if e.Star {
		return nil, fmt.Errorf("expr: %s(*) is not valid", e.Name)
	}
	if len(e.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(e.Args) > def.MaxArgs) {
		return nil, fmt.Errorf("expr: %s expects %d..%d arguments, got %d", def.Name, def.MinArgs, def.MaxArgs, len(e.Args))
	}
	plan, err := c.planArgs(e.Args)
	if err != nil {
		return nil, err
	}
	fe := &funcEval{def: def, plan: plan}
	if def.Float != nil {
		fe.floats = plan.Floats(0)
	}
	if c.scope != nil {
		fe.calls = &c.scope.Calls
	}
	return fe, nil
}

func (c *compiler) compileCase(e *sqlparser.CaseExpr) (Evaluator, error) {
	ce := &caseEval{}
	for _, w := range e.Whens {
		cond, err := c.compile(w.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compile(w.Then)
		if err != nil {
			return nil, err
		}
		ce.whens = append(ce.whens, caseWhen{cond, then})
	}
	if e.Else != nil {
		els, err := c.compile(e.Else)
		if err != nil {
			return nil, err
		}
		ce.els = els
	}
	return ce, nil
}

// IsAggregate is the one test for "this function name calls an
// aggregate": a built-in SQL aggregate, or one of udfNames — the
// aggregate registry's Names(). Names compare case-insensitively.
func IsAggregate(name string, udfNames map[string]bool) bool {
	name = strings.ToLower(name)
	return aggregateNames[name] || udfNames[name]
}

// ContainsAggregate reports whether the expression tree contains an
// aggregate function call.
func ContainsAggregate(e sqlparser.Expr, udfNames map[string]bool) bool {
	found := false
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && IsAggregate(fc.Name, udfNames) {
			found = true
		}
		return !found
	})
	return found
}

// IsAggregateQuery reports whether sel runs through the aggregation
// pipeline: it has a GROUP BY, or an aggregate call in a select item or
// in an ORDER BY key that is computed as a hidden select item (one that
// does not sort on the output).
func IsAggregateQuery(sel *sqlparser.Select, udfNames map[string]bool) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, item := range sel.Items {
		if !item.Star && ContainsAggregate(item.Expr, udfNames) {
			return true
		}
	}
	if len(sel.OrderBy) == 0 {
		return false
	}
	outNames, _ := sqlparser.OutputNames(sel)
	for _, o := range sel.OrderBy {
		if !sqlparser.OrderKeyOnOutput(o.Expr, outNames) && ContainsAggregate(o.Expr, udfNames) {
			return true
		}
	}
	return false
}
