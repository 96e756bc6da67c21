package exec

import (
	"strconv"
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/udf"
)

// aggSpec is one aggregate call extracted from the select list.
type aggSpec struct {
	agg      udf.Aggregate
	args     []sqlparser.Expr
	star     bool
	distinct bool
	key      string // canonical text, for deduplication
}

// grpQualifier and aggQualifier are synthetic table names used by
// rewritten post-aggregation expressions; resolved against the group
// row [groupValues..., aggregateResults...].
const (
	grpQualifier = "$grp"
	aggQualifier = "$agg"
)

// rewriteAggregates rewrites a select-item expression for the
// post-aggregation evaluation phase: subtrees textually equal to a
// GROUP BY expression become $grp.k references, and aggregate calls
// become $agg.k references while being collected into specs. The
// returned specs slice extends the one passed in (deduplicated).
func rewriteAggregates(e sqlparser.Expr, groupBy []sqlparser.Expr, specs []aggSpec, aggs *udf.Registry) (sqlparser.Expr, []aggSpec, error) {
	for k, g := range groupBy {
		if matchKey(e) == matchKey(g) {
			return &sqlparser.ColumnRef{Table: grpQualifier, Name: strconv.Itoa(k)}, specs, nil
		}
	}
	if fc, ok := e.(*sqlparser.FuncCall); ok {
		name := strings.ToLower(fc.Name)
		if agg, found := aggs.Lookup(name); found && (expr.AggregateNames[name] || !isScalarOnly(name)) {
			key := matchKey(fc)
			for k, s := range specs {
				if s.key == key {
					return &sqlparser.ColumnRef{Table: aggQualifier, Name: strconv.Itoa(k)}, specs, nil
				}
			}
			nargs := len(fc.Args)
			if fc.Star {
				nargs = 0
			}
			if err := agg.CheckArgs(nargs); err != nil {
				return nil, nil, err
			}
			specs = append(specs, aggSpec{agg: agg, args: fc.Args, star: fc.Star, distinct: fc.Distinct, key: key})
			return &sqlparser.ColumnRef{Table: aggQualifier, Name: strconv.Itoa(len(specs) - 1)}, specs, nil
		}
	}
	// Recurse structurally, rebuilding the node.
	var err error
	switch e := e.(type) {
	case *sqlparser.UnaryExpr:
		out := &sqlparser.UnaryExpr{Op: e.Op}
		out.X, specs, err = rewriteAggregates(e.X, groupBy, specs, aggs)
		return out, specs, err
	case *sqlparser.BinaryExpr:
		out := &sqlparser.BinaryExpr{Op: e.Op}
		if out.L, specs, err = rewriteAggregates(e.L, groupBy, specs, aggs); err != nil {
			return nil, nil, err
		}
		out.R, specs, err = rewriteAggregates(e.R, groupBy, specs, aggs)
		return out, specs, err
	case *sqlparser.FuncCall:
		out := &sqlparser.FuncCall{Name: e.Name, Star: e.Star, Distinct: e.Distinct}
		out.Args = make([]sqlparser.Expr, len(e.Args))
		for i, a := range e.Args {
			if out.Args[i], specs, err = rewriteAggregates(a, groupBy, specs, aggs); err != nil {
				return nil, nil, err
			}
		}
		return out, specs, nil
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{}
		for _, w := range e.Whens {
			var nw sqlparser.When
			if nw.Cond, specs, err = rewriteAggregates(w.Cond, groupBy, specs, aggs); err != nil {
				return nil, nil, err
			}
			if nw.Then, specs, err = rewriteAggregates(w.Then, groupBy, specs, aggs); err != nil {
				return nil, nil, err
			}
			out.Whens = append(out.Whens, nw)
		}
		if e.Else != nil {
			if out.Else, specs, err = rewriteAggregates(e.Else, groupBy, specs, aggs); err != nil {
				return nil, nil, err
			}
		}
		return out, specs, nil
	case *sqlparser.IsNullExpr:
		out := &sqlparser.IsNullExpr{Negate: e.Negate}
		out.X, specs, err = rewriteAggregates(e.X, groupBy, specs, aggs)
		return out, specs, err
	case *sqlparser.CastExpr:
		out := &sqlparser.CastExpr{Type: e.Type}
		out.X, specs, err = rewriteAggregates(e.X, groupBy, specs, aggs)
		return out, specs, err
	case *sqlparser.BetweenExpr:
		out := &sqlparser.BetweenExpr{Negate: e.Negate}
		if out.X, specs, err = rewriteAggregates(e.X, groupBy, specs, aggs); err != nil {
			return nil, nil, err
		}
		if out.Lo, specs, err = rewriteAggregates(e.Lo, groupBy, specs, aggs); err != nil {
			return nil, nil, err
		}
		out.Hi, specs, err = rewriteAggregates(e.Hi, groupBy, specs, aggs)
		return out, specs, err
	case *sqlparser.InExpr:
		out := &sqlparser.InExpr{Negate: e.Negate}
		if out.X, specs, err = rewriteAggregates(e.X, groupBy, specs, aggs); err != nil {
			return nil, nil, err
		}
		out.List = make([]sqlparser.Expr, len(e.List))
		for i, x := range e.List {
			if out.List[i], specs, err = rewriteAggregates(x, groupBy, specs, aggs); err != nil {
				return nil, nil, err
			}
		}
		return out, specs, nil
	default:
		// Literals and column refs pass through unchanged.
		return e, specs, nil
	}
}

// matchKey is the text two expressions are compared by. Every `?` is
// its own slot although all of them print as "?", so each slot's index
// is appended: an expression holding a parameter equals only itself.
func matchKey(e sqlparser.Expr) string {
	key := e.String()
	if !strings.Contains(key, "?") {
		return key
	}
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) {
		if pr, ok := x.(*sqlparser.ParamRef); ok {
			key += "?" + strconv.Itoa(pr.Index)
		}
	})
	return key
}

// isScalarOnly reports whether name should never be treated as an
// aggregate even if somehow present in the aggregate registry.
// Currently no overlaps exist; the hook keeps the namespaces honest.
func isScalarOnly(string) bool { return false }
