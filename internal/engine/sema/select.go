package sema

import (
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// scopeEntry is one FROM table visible to column references. A nil
// schema marks a table that failed to resolve: its columns accept any
// name with unknown type, so one bad table name doesn't cascade into a
// diagnostic per column reference.
type scopeEntry struct {
	name   string // the addressable name (alias, or table name)
	schema *sqltypes.Schema
}

// scope is the set of tables a query's column references resolve
// against, mirroring the executor's binding of cross-joined FROM
// entries. A nil *scope means no columns are allowed (FROM-less
// SELECTs, INSERT VALUES expressions).
type scope struct {
	entries []scopeEntry
}

func (c *checker) buildScope(from []sqlparser.TableRef) *scope {
	sc := &scope{}
	seen := make(map[string]bool, len(from))
	for _, ref := range from {
		name := ref.RefName()
		key := strings.ToLower(name)
		if seen[key] {
			c.errf(ref.At, "duplicate table name %q in FROM; use aliases", name)
			continue
		}
		seen[key] = true
		entry := scopeEntry{name: name}
		if c.env.Catalog != nil {
			schema, err := c.env.Catalog.TableSchema(ref.Name)
			if err != nil {
				c.errf(ref.At, "unknown table %q", ref.Name)
			} else {
				entry.schema = schema
			}
		}
		sc.entries = append(sc.entries, entry)
	}
	return sc
}

// resolveColumn mirrors the executor's binding.resolve: qualified
// references name a FROM entry; unqualified references must be
// unambiguous across all entries.
func (c *checker) resolveColumn(sc *scope, cr *sqlparser.ColumnRef) typ {
	if sc == nil || len(sc.entries) == 0 {
		c.errf(cr.At, "column %s is not allowed here", cr)
		return anyType
	}
	if cr.Table != "" {
		for _, e := range sc.entries {
			if !strings.EqualFold(e.name, cr.Table) {
				continue
			}
			if e.schema == nil {
				return anyType // table itself already diagnosed
			}
			if i := e.schema.Index(cr.Name); i >= 0 {
				return known(e.schema.Columns[i].Type)
			}
			c.errf(cr.At, "table %q has no column %q", cr.Table, cr.Name)
			return anyType
		}
		c.errf(cr.At, "unknown table %q", cr.Table)
		return anyType
	}
	found, matches := anyType, 0
	for _, e := range sc.entries {
		if e.schema == nil {
			return anyType // unresolved table could supply any column
		}
		if i := e.schema.Index(cr.Name); i >= 0 {
			matches++
			found = known(e.schema.Columns[i].Type)
		}
	}
	switch matches {
	case 0:
		c.errf(cr.At, "unknown column %q", cr.Name)
		return anyType
	case 1:
		return found
	default:
		c.errf(cr.At, "ambiguous column %q", cr.Name)
		return anyType
	}
}

func (c *checker) checkSelect(sel *sqlparser.Select) {
	if len(sel.From) == 0 {
		c.checkConstSelect(sel)
		return
	}
	sc := c.buildScope(sel.From)

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
				c.checkStar(item, sc)
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

func (c *checker) checkStar(item sqlparser.SelectItem, sc *scope) {
	if item.StarTable == "" {
		return
	}
	for _, e := range sc.entries {
		if strings.EqualFold(e.name, item.StarTable) {
			return
		}
	}
	c.errf(item.At, "%s.* does not match any table in FROM", item.StarTable)
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
func (c *checker) checkOrderBy(sel *sqlparser.Select, sc *scope, isAgg bool, groupKeys map[string]bool, outNames map[string]bool, hasStar bool) {
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
