package sema

import (
	"strings"

	"repro/internal/engine/bind"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// typ is a point in sema's type lattice: either a known SQL type or
// unknown (NULL literals, un-annotated UDF results, mixed CASE arms).
// Unknown types are never flagged — sema only reports provable errors.
type typ struct {
	t     sqltypes.Type
	known bool
}

// anyType is the unknown type.
var anyType = typ{}

func known(t sqltypes.Type) typ { return typ{t: t, known: true} }

// isVarChar reports a provable string: the only operand class the
// engine's arithmetic can never evaluate meaningfully.
func (t typ) isVarChar() bool { return t.known && t.t == sqltypes.TypeVarChar }

func numericParam(t sqltypes.Type) bool {
	return t == sqltypes.TypeDouble || t == sqltypes.TypeBigInt
}

// infer type-checks an expression against a scope and returns its
// inferred type, appending diagnostics for name/type/arity errors. A
// nil scope allows no columns (FROM-less SELECTs, INSERT VALUES). It
// deliberately matches the executor's runtime semantics: comparisons,
// logic, IS NULL, BETWEEN and IN accept any operands (the engine's
// Compare and three-valued Bool are total); arithmetic and numeric
// function parameters reject provable VARCHAR operands.
func (c *checker) infer(e sqlparser.Expr, sc *bind.Scope) typ {
	switch e := e.(type) {
	case nil:
		return anyType
	case *sqlparser.NumberLit:
		if e.IsInt {
			return known(sqltypes.TypeBigInt)
		}
		return known(sqltypes.TypeDouble)
	case *sqlparser.StringLit:
		return known(sqltypes.TypeVarChar)
	case *sqlparser.NullLit:
		return anyType
	case *sqlparser.BoolLit:
		return known(sqltypes.TypeBool)
	case *sqlparser.ColumnRef:
		if sc == nil || len(sc.Entries) == 0 {
			c.errf(e.At, "column %s is not allowed here", e)
			return anyType
		}
		col, err := sc.Resolve(e.Table, e.Name)
		if err != nil {
			c.errf(e.At, "%s", err)
			return anyType
		}
		if t, ok := sc.Type(col); ok {
			return known(t)
		}
		return anyType
	case *sqlparser.ParamRef:
		// A `?` placeholder types as unknown; the bound value is only
		// known at EXECUTE time, and the engine's operators are total
		// over runtime values. Slot validity is checked at bind time.
		return anyType
	case *sqlparser.UnaryExpr:
		xt := c.infer(e.X, sc)
		if e.Op == "NOT" {
			return known(sqltypes.TypeBool)
		}
		if xt.isVarChar() {
			c.errf(e.At, "type mismatch: cannot negate VARCHAR operand %s", e.X)
			return anyType
		}
		if xt.known && xt.t == sqltypes.TypeBigInt {
			return known(sqltypes.TypeBigInt)
		}
		if xt.known {
			return known(sqltypes.TypeDouble)
		}
		return anyType
	case *sqlparser.BinaryExpr:
		lt := c.infer(e.L, sc)
		rt := c.infer(e.R, sc)
		switch e.Op {
		case "+", "-", "*", "/", "%":
			if lt.isVarChar() {
				c.errf(e.At, "type mismatch: left operand of %q is VARCHAR (%s)", e.Op, e.L)
			}
			if rt.isVarChar() {
				c.errf(e.At, "type mismatch: right operand of %q is VARCHAR (%s)", e.Op, e.R)
			}
			if lt.known && rt.known && !lt.isVarChar() && !rt.isVarChar() {
				if lt.t == sqltypes.TypeBigInt && rt.t == sqltypes.TypeBigInt {
					return known(sqltypes.TypeBigInt)
				}
				return known(sqltypes.TypeDouble)
			}
			return anyType
		case "||":
			return known(sqltypes.TypeVarChar)
		case "=", "<>", "<", "<=", ">", ">=", "AND", "OR":
			return known(sqltypes.TypeBool)
		default:
			c.errf(e.At, "unknown operator %q", e.Op)
			return anyType
		}
	case *sqlparser.FuncCall:
		return c.inferCall(e, sc)
	case *sqlparser.CaseExpr:
		var rt typ
		first := true
		merge := func(t typ) {
			if first {
				rt = t
				first = false
			} else if !(rt.known && t.known && rt.t == t.t) {
				rt = anyType
			}
		}
		for _, w := range e.Whens {
			c.infer(w.Cond, sc)
			merge(c.infer(w.Then, sc))
		}
		if e.Else != nil {
			merge(c.infer(e.Else, sc))
		}
		return rt
	case *sqlparser.IsNullExpr:
		c.infer(e.X, sc)
		return known(sqltypes.TypeBool)
	case *sqlparser.CastExpr:
		c.infer(e.X, sc)
		t, err := sqltypes.ParseType(e.Type)
		if err != nil {
			c.errf(e.At, "unknown type %q in CAST", e.Type)
			return anyType
		}
		return known(t)
	case *sqlparser.BetweenExpr:
		c.infer(e.X, sc)
		c.infer(e.Lo, sc)
		c.infer(e.Hi, sc)
		return known(sqltypes.TypeBool)
	case *sqlparser.InExpr:
		c.infer(e.X, sc)
		for _, x := range e.List {
			c.infer(x, sc)
		}
		return known(sqltypes.TypeBool)
	default:
		c.errf(e.Pos(), "unsupported expression %T", e)
		return anyType
	}
}

// inferCall checks a function call: aggregates go through the
// aggregate registry's own CheckArgs (the UDF's arity contract),
// scalars through the scalar registry's arity bounds plus any declared
// parameter/return types.
func (c *checker) inferCall(e *sqlparser.FuncCall, sc *bind.Scope) typ {
	name := strings.ToLower(e.Name)
	if c.isAggregate(name) {
		return c.inferAggregateCall(e, name, sc)
	}
	if c.env.Scalars == nil {
		for _, a := range e.Args {
			c.infer(a, sc)
		}
		return anyType
	}
	def, ok := c.env.Scalars.Lookup(name)
	if !ok {
		c.errf(e.At, "unknown function %q", e.Name)
		for _, a := range e.Args {
			c.infer(a, sc)
		}
		return anyType
	}
	if e.Star {
		c.errf(e.At, "%s(*) is not valid; only count(*) takes a star", name)
		return anyType
	}
	if len(e.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(e.Args) > def.MaxArgs) {
		switch {
		case def.MaxArgs < 0:
			c.errf(e.At, "%s expects at least %d argument(s), got %d", def.Name, def.MinArgs, len(e.Args))
		case def.MinArgs == def.MaxArgs:
			c.errf(e.At, "%s expects %d argument(s), got %d", def.Name, def.MinArgs, len(e.Args))
		default:
			c.errf(e.At, "%s expects %d..%d arguments, got %d", def.Name, def.MinArgs, def.MaxArgs, len(e.Args))
		}
	}
	for i, a := range e.Args {
		at := c.infer(a, sc)
		want := sqltypes.TypeNull
		switch {
		case i < len(def.Params):
			want = def.Params[i]
		case def.MaxArgs < 0 && len(def.Params) > 0:
			// Variadic functions: trailing arguments take the last
			// declared parameter type.
			want = def.Params[len(def.Params)-1]
		}
		if numericParam(want) && at.isVarChar() {
			c.errf(a.Pos(), "type mismatch: argument %d of %s() must be numeric, got VARCHAR (%s)", i+1, def.Name, a)
		}
	}
	if def.Ret != sqltypes.TypeNull {
		return known(def.Ret)
	}
	return anyType
}

func (c *checker) inferAggregateCall(e *sqlparser.FuncCall, name string, sc *bind.Scope) typ {
	nargs := len(e.Args)
	if e.Star {
		nargs = 0
	}
	if c.env.Aggs != nil {
		if agg, ok := c.env.Aggs.Lookup(name); ok {
			if err := agg.CheckArgs(nargs); err != nil {
				c.errf(e.At, "%s", strings.TrimPrefix(err.Error(), "udf: "))
			}
		}
	}
	for _, a := range e.Args {
		at := c.infer(a, sc)
		// sum/avg fold through float accumulation; a provable string
		// can never contribute. min/max/count and aggregate UDFs accept
		// anything (UDFs take string options, e.g. nlq_list's matrix
		// type argument).
		if (name == "sum" || name == "avg") && at.isVarChar() {
			c.errf(a.Pos(), "type mismatch: %s() requires a numeric argument, got VARCHAR (%s)", name, a)
		}
	}
	if name == "count" {
		return known(sqltypes.TypeBigInt)
	}
	return anyType
}

// noAggregates reports every aggregate call in e; clause names the
// context ("the WHERE clause", "GROUP BY", ...).
func (c *checker) noAggregates(e sqlparser.Expr, clause string) {
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && c.isAggregate(fc.Name) {
			c.errf(fc.At, "aggregate %s() is not allowed in %s", strings.ToLower(fc.Name), clause)
		}
		return true
	})
}
