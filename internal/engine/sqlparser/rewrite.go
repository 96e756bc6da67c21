package sqlparser

import "fmt"

// Walk and Rewrite are the only two functions that enumerate an
// expression node's children; every other traversal, in this package
// and outside it, is one of them with a callback.

// Walk visits e and its descendants in pre-order, children in source
// order. fn returning false prunes: the node's children are skipped.
// It allocates nothing.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *NumberLit, *StringLit, *NullLit, *BoolLit, *ColumnRef, *ParamRef:
	case *UnaryExpr:
		Walk(e.X, fn)
	case *BinaryExpr:
		Walk(e.L, fn)
		Walk(e.R, fn)
	case *FuncCall:
		for _, a := range e.Args {
			Walk(a, fn)
		}
	case *CaseExpr:
		for _, w := range e.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		Walk(e.Else, fn)
	case *IsNullExpr:
		Walk(e.X, fn)
	case *CastExpr:
		Walk(e.X, fn)
	case *BetweenExpr:
		Walk(e.X, fn)
		Walk(e.Lo, fn)
		Walk(e.Hi, fn)
	case *InExpr:
		Walk(e.X, fn)
		for _, x := range e.List {
			Walk(x, fn)
		}
	default:
		panic(fmt.Sprintf("sqlparser: Walk does not know node type %T", e))
	}
}

// Rewrite deep-copies the tree, consulting sub (when non-nil) at every
// node in pre-order; a (replacement, true) answer substitutes the whole
// node, inserted as-is, without visiting its children. Literals are
// immutable and shared; every other node is duplicated with its
// position, so the result can be rewritten again without aliasing the
// original.
func Rewrite(e Expr, sub func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if sub != nil {
		if repl, ok := sub(e); ok {
			return repl
		}
	}
	switch e := e.(type) {
	case *NumberLit, *StringLit, *NullLit, *BoolLit:
		return e
	case *ColumnRef:
		cp := *e
		return &cp
	case *ParamRef:
		cp := *e
		return &cp
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: Rewrite(e.X, sub), At: e.At}
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, L: Rewrite(e.L, sub), R: Rewrite(e.R, sub), At: e.At}
	case *FuncCall:
		out := &FuncCall{Name: e.Name, Star: e.Star, Distinct: e.Distinct, At: e.At}
		if e.Args != nil {
			out.Args = make([]Expr, len(e.Args))
			for i, a := range e.Args {
				out.Args[i] = Rewrite(a, sub)
			}
		}
		return out
	case *CaseExpr:
		out := &CaseExpr{At: e.At}
		for _, w := range e.Whens {
			out.Whens = append(out.Whens, When{Cond: Rewrite(w.Cond, sub), Then: Rewrite(w.Then, sub)})
		}
		out.Else = Rewrite(e.Else, sub)
		return out
	case *IsNullExpr:
		return &IsNullExpr{X: Rewrite(e.X, sub), Negate: e.Negate, At: e.At}
	case *CastExpr:
		return &CastExpr{X: Rewrite(e.X, sub), Type: e.Type, At: e.At}
	case *BetweenExpr:
		return &BetweenExpr{X: Rewrite(e.X, sub), Lo: Rewrite(e.Lo, sub), Hi: Rewrite(e.Hi, sub), Negate: e.Negate, At: e.At}
	case *InExpr:
		out := &InExpr{X: Rewrite(e.X, sub), Negate: e.Negate, At: e.At}
		out.List = make([]Expr, len(e.List))
		for i, x := range e.List {
			out.List[i] = Rewrite(x, sub)
		}
		return out
	default:
		panic(fmt.Sprintf("sqlparser: Rewrite does not know node type %T", e))
	}
}

// CopyExpr returns a deep copy of an expression tree (view expansion
// relies on the copy sharing no structural node with the original).
func CopyExpr(e Expr) Expr { return Rewrite(e, nil) }

// SubstituteColumns rebuilds the expression tree, replacing each
// column reference for which sub returns (replacement, true).
// Replacement expressions are inserted as-is (the caller ensures they
// are themselves fresh copies).
func SubstituteColumns(e Expr, sub func(*ColumnRef) (Expr, bool)) Expr {
	return Rewrite(e, func(x Expr) (Expr, bool) {
		if cr, ok := x.(*ColumnRef); ok {
			return sub(cr)
		}
		return nil, false
	})
}

// SubstituteParams rebuilds the expression tree, replacing each `?`
// parameter with the literal expression at its slot. Out-of-range
// slots are left in place (sema rejects them later).
func SubstituteParams(e Expr, vals []Expr) Expr { return Rewrite(e, paramSub(vals)) }

// WalkColumns visits every column reference in the expression.
func WalkColumns(e Expr, fn func(*ColumnRef)) {
	Walk(e, func(x Expr) bool {
		if cr, ok := x.(*ColumnRef); ok {
			fn(cr)
		}
		return true
	})
}

// WalkExprs visits every node of the expression tree.
func WalkExprs(e Expr, fn func(Expr)) {
	Walk(e, func(x Expr) bool {
		fn(x)
		return true
	})
}

// copySelectWith returns a deep copy of the SELECT, every expression
// tree rewritten through sub, so the copy can be changed without
// mutating a cached original.
func copySelectWith(s *Select, sub func(Expr) (Expr, bool)) *Select {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		it.Expr = Rewrite(it.Expr, sub)
		cp.Items[i] = it
	}
	cp.From = append([]TableRef(nil), s.From...)
	cp.Where = Rewrite(s.Where, sub)
	if s.GroupBy != nil {
		cp.GroupBy = make([]Expr, len(s.GroupBy))
		for i, g := range s.GroupBy {
			cp.GroupBy[i] = Rewrite(g, sub)
		}
	}
	cp.Having = Rewrite(s.Having, sub)
	if s.OrderBy != nil {
		cp.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			o.Expr = Rewrite(o.Expr, sub)
			cp.OrderBy[i] = o
		}
	}
	if s.Limit != nil {
		n := *s.Limit
		cp.Limit = &n
	}
	return &cp
}

// paramSub is the rewrite hook that binds `?` slots to literals.
func paramSub(vals []Expr) func(Expr) (Expr, bool) {
	if len(vals) == 0 {
		return nil
	}
	return func(x Expr) (Expr, bool) {
		pr, ok := x.(*ParamRef)
		if !ok || pr.Index < 0 || pr.Index >= len(vals) {
			return nil, false
		}
		return vals[pr.Index], true
	}
}

// BindParams returns a deep copy of stmt with every `?` replaced by
// the corresponding literal expression. The statement is copied even
// when it has no parameters, so callers may hand the result to the
// executor while the original stays shared (e.g. inside a plan cache).
// Only SELECT and INSERT support parameters.
func BindParams(stmt Statement, vals []Expr) (Statement, error) {
	switch st := stmt.(type) {
	case *Select:
		return copySelectWith(st, paramSub(vals)), nil
	case *Insert:
		cp := *st
		cp.Columns = append([]string(nil), st.Columns...)
		cp.ColumnPos = append([]Position(nil), st.ColumnPos...)
		sub := paramSub(vals)
		if st.Rows != nil {
			cp.Rows = make([][]Expr, len(st.Rows))
			for i, row := range st.Rows {
				nr := make([]Expr, len(row))
				for j, e := range row {
					nr[j] = Rewrite(e, sub)
				}
				cp.Rows[i] = nr
			}
		}
		cp.Query = copySelectWith(st.Query, sub)
		return &cp, nil
	default:
		if CountParams(stmt) > 0 {
			return nil, fmt.Errorf("sqlparser: %T does not support ? parameters", stmt)
		}
		return stmt, nil
	}
}

// CountParams reports how many `?` parameter slots stmt uses (the
// parser numbers them left-to-right, so this is 1 + the highest index).
func CountParams(stmt Statement) int {
	n := 0
	walkStatementExprs(stmt, func(e Expr) {
		Walk(e, func(x Expr) bool {
			if pr, ok := x.(*ParamRef); ok && pr.Index+1 > n {
				n = pr.Index + 1
			}
			return true
		})
	})
	return n
}

// walkStatementExprs hands every top-level expression tree of the
// statement to fn.
func walkStatementExprs(stmt Statement, fn func(Expr)) {
	switch st := stmt.(type) {
	case *Select:
		walkSelectExprs(st, fn)
	case *Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				fn(e)
			}
		}
		if st.Query != nil {
			walkSelectExprs(st.Query, fn)
		}
	case *CreateView:
		if st.Query != nil {
			walkSelectExprs(st.Query, fn)
		}
	}
}

func walkSelectExprs(s *Select, fn func(Expr)) {
	for _, it := range s.Items {
		if it.Expr != nil {
			fn(it.Expr)
		}
	}
	if s.Where != nil {
		fn(s.Where)
	}
	for _, g := range s.GroupBy {
		fn(g)
	}
	if s.Having != nil {
		fn(s.Having)
	}
	for _, o := range s.OrderBy {
		fn(o.Expr)
	}
}
