package sema

import (
	"strings"

	"repro/internal/engine/bind"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// scope builds the bind.Scope of a FROM clause from catalog schemas. A
// table the catalog lacks is reported and stays in scope unresolved,
// accepting any column (see bind.Entry).
func (c *checker) scope(from []sqlparser.TableRef) *bind.Scope {
	sc := &bind.Scope{}
	for _, ref := range from {
		var schema *sqltypes.Schema
		var lookup error
		if c.env.Catalog != nil {
			schema, lookup = c.env.Catalog.TableSchema(ref.Name)
		}
		if err := sc.Add(ref.RefName(), schema); err != nil {
			c.errf(ref.At, "%s", err)
		} else if lookup != nil {
			c.errf(ref.At, "unknown table %q", ref.Name)
		}
	}
	return sc
}

func (c *checker) checkSelect(sel *sqlparser.Select) {
	if len(sel.From) == 0 {
		c.checkConstSelect(sel)
		return
	}
	sc := c.scope(sel.From)

	isAgg := expr.IsAggregateQuery(sel, c.aggNames)
	outNames, hasStar := sqlparser.OutputNames(sel)

	if sel.Where != nil {
		c.noAggregates(sel.Where, "the WHERE clause")
		c.infer(sel.Where, sc)
	}
	groupKeys := make(map[string]bool, len(sel.GroupBy))
	for _, g := range sel.GroupBy {
		c.noAggregates(g, "GROUP BY")
		c.infer(g, sc)
		groupKeys[g.String()] = true
	}

	if isAgg {
		for _, item := range sel.Items {
			if item.Star {
				c.errf(item.At, "%s cannot be combined with GROUP BY or aggregates; select explicit expressions", starText(item))
				continue
			}
			c.infer(item.Expr, sc)
			c.checkAggPlacement(item.Expr, groupKeys)
		}
		if sel.Having != nil {
			c.infer(sel.Having, sc)
			c.checkAggPlacement(sel.Having, groupKeys)
		}
	} else {
		for _, item := range sel.Items {
			if item.Star {
				if _, err := sc.Star(item.StarTable); err != nil {
					c.errf(item.At, "%s", err)
				}
				continue
			}
			c.infer(item.Expr, sc)
		}
		if sel.Having != nil {
			c.errf(sel.Having.Pos(), "HAVING requires GROUP BY or aggregates")
		}
	}
	c.checkOrderBy(sel, sc, isAgg, groupKeys, outNames, hasStar)
}

// checkConstSelect checks a FROM-less SELECT of constants.
func (c *checker) checkConstSelect(sel *sqlparser.Select) {
	if sel.Where != nil {
		c.errf(sel.Where.Pos(), "WHERE requires a FROM clause")
	}
	for _, g := range sel.GroupBy {
		c.errf(g.Pos(), "GROUP BY requires a FROM clause")
	}
	if sel.Having != nil {
		c.errf(sel.Having.Pos(), "HAVING requires a FROM clause")
	}
	for _, item := range sel.Items {
		if item.Star {
			c.errf(item.At, "%s requires a FROM clause", starText(item))
			continue
		}
		c.noAggregates(item.Expr, "a FROM-less SELECT")
		c.infer(item.Expr, nil)
	}
}

func starText(item sqlparser.SelectItem) string {
	if item.StarTable != "" {
		return item.StarTable + ".*"
	}
	return "*"
}

// checkAggPlacement enforces the aggregate-query placement rules the
// planner's rewrite phase assumes: outside aggregate calls, a column
// may only appear inside a subtree textually equal to a GROUP BY
// expression; aggregate calls may not nest.
func (c *checker) checkAggPlacement(e sqlparser.Expr, groupKeys map[string]bool) {
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if len(groupKeys) > 0 && groupKeys[x.String()] {
			return false
		}
		switch x := x.(type) {
		case *sqlparser.ColumnRef:
			c.errf(x.At, "column %s must appear in GROUP BY or inside an aggregate", x)
		case *sqlparser.FuncCall:
			if c.isAggregate(x.Name) {
				for _, a := range x.Args {
					c.noNestedAggregates(a)
				}
				return false
			}
		}
		return true
	})
}

// noNestedAggregates reports the aggregate calls in an aggregate's
// argument (the outermost of each nest; columns are free there).
func (c *checker) noNestedAggregates(arg sqlparser.Expr) {
	sqlparser.Walk(arg, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && c.isAggregate(fc.Name) {
			c.errf(fc.At, "aggregate %s() cannot be nested inside another aggregate", strings.ToLower(fc.Name))
			return false
		}
		return true
	})
}

// checkOrderBy follows the planner's two ORDER BY paths: keys that are
// integer ordinals or resolve entirely against output names are sorted
// on the output; anything else is computed as a hidden select item and
// must therefore satisfy the same rules as a select item.
func (c *checker) checkOrderBy(sel *sqlparser.Select, sc *bind.Scope, isAgg bool, groupKeys map[string]bool, outNames map[string]bool, hasStar bool) {
	if len(sel.OrderBy) == 0 {
		return
	}
	for _, o := range sel.OrderBy {
		if lit, ok := o.Expr.(*sqlparser.NumberLit); ok && lit.IsInt {
			if !hasStar && (lit.Int < 1 || lit.Int > int64(len(sel.Items))) {
				c.errf(lit.At, "ORDER BY ordinal %d is out of range (1..%d)", lit.Int, len(sel.Items))
			}
			continue
		}
		if sqlparser.OrderKeyOnOutput(o.Expr, outNames) {
			continue
		}
		c.infer(o.Expr, sc)
		if isAgg {
			c.checkAggPlacement(o.Expr, groupKeys)
		}
	}
}
