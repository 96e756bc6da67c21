package db

import (
	"fmt"
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
)

// Views implement §3.6's second scenario: "X exists as a view" whose
// definition involves joins and filters over base tables, with the
// summary/scoring query running over the view. The engine expands
// (inlines) views at plan time: the view's FROM entries are spliced
// into the referencing query with fresh aliases, the view's WHERE is
// ANDed in, and references to the view's output columns are replaced
// by the defining expressions. Combined with the executor's
// single-table predicate pushdown this reproduces the rewrite behavior
// the paper's optimizer discussion assumes.
//
// Supported view bodies: plain SELECT over base tables (or other
// views, expanded recursively) with optional WHERE — no aggregates,
// GROUP BY, ORDER BY, LIMIT or star items. These restrictions match
// the derived-dimension use case and are validated at CREATE VIEW.

const maxViewDepth = 16

// CreateView validates and registers a view definition.
func (d *DB) CreateView(name string, query *sqlparser.Select) error {
	if err := validateViewBody(query, d.aggs.Names()); err != nil {
		return fmt.Errorf("db: view %q: %w", name, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := d.tables[key]; exists {
		return fmt.Errorf("db: a table named %q already exists", name)
	}
	if _, exists := d.views[key]; exists {
		return fmt.Errorf("db: view %q already exists", name)
	}
	d.views[key] = query
	if err := d.saveCatalog(); err != nil {
		delete(d.views, key)
		return err
	}
	d.epoch.Add(1)
	return nil
}

// DropView removes a view.
func (d *DB) DropView(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := d.views[key]; !ok {
		return fmt.Errorf("db: view %q does not exist", name)
	}
	delete(d.views, key)
	if err := d.saveCatalog(); err != nil {
		return err
	}
	d.epoch.Add(1)
	return nil
}

// HasView reports whether the view exists.
func (d *DB) HasView(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.views[strings.ToLower(name)]
	return ok
}

// ViewNames lists registered views.
func (d *DB) ViewNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.views))
	for k := range d.views {
		out = append(out, k)
	}
	return out
}

func (d *DB) view(name string) (*sqlparser.Select, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.views[strings.ToLower(name)]
	return v, ok
}

// validateViewBody enforces the simple-view restrictions. A view body
// is inlined as row expressions, so an aggregate call in it — built-in
// or one of udfNames, the registered aggregate UDFs — is refused here:
// nothing downstream would.
func validateViewBody(q *sqlparser.Select, udfNames map[string]bool) error {
	if len(q.From) == 0 {
		return fmt.Errorf("view must select FROM at least one table")
	}
	if len(q.GroupBy) > 0 || len(q.OrderBy) > 0 || q.Limit != nil || q.Having != nil {
		return fmt.Errorf("views with GROUP BY/HAVING/ORDER BY/LIMIT are not supported")
	}
	if sqlparser.CountParams(q) > 0 {
		return fmt.Errorf("views may not contain ? parameters")
	}
	seen := make(map[string]bool)
	for i, item := range q.Items {
		if item.Star {
			return fmt.Errorf("views must name their output columns explicitly (no *)")
		}
		if expr.ContainsAggregate(item.Expr, udfNames) {
			return fmt.Errorf("views may not contain aggregates")
		}
		name := strings.ToLower(item.ExplicitName())
		if name == "" {
			return fmt.Errorf("view output column %d needs an alias", i+1)
		}
		if seen[name] {
			return fmt.Errorf("duplicate view output column %q", name)
		}
		seen[name] = true
	}
	return nil
}

// expandViews rewrites a SELECT so that no FROM entry names a view.
func (d *DB) expandViews(sel *sqlparser.Select, depth int) (*sqlparser.Select, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("db: view expansion exceeds depth %d (cyclic views?)", maxViewDepth)
	}
	hasView := false
	for _, ref := range sel.From {
		if _, ok := d.view(ref.Name); ok {
			hasView = true
			break
		}
	}
	if !hasView {
		return sel, nil
	}

	// Copy the clause slices: substitution below must not mutate the
	// caller's AST (view bodies are stored and re-expanded).
	out := &sqlparser.Select{
		GroupBy: append([]sqlparser.Expr{}, sel.GroupBy...),
		Having:  sel.Having,
		OrderBy: append([]sqlparser.OrderItem{}, sel.OrderBy...),
		Limit:   sel.Limit,
		Where:   sel.Where,
		Items:   append([]sqlparser.SelectItem{}, sel.Items...),
	}

	// subs maps (lowercased view ref name, lowercased output column) to
	// the defining expression with re-aliased internals.
	type colKey struct{ ref, col string }
	subs := make(map[colKey]sqlparser.Expr)
	viewRefs := make(map[string][]sqlparser.SelectItem) // ref name → rewritten outputs
	var wheres []sqlparser.Expr
	viewSeq := 0

	for _, ref := range sel.From {
		body, isView := d.view(ref.Name)
		if !isView {
			out.From = append(out.From, ref)
			continue
		}
		// Recursively expand nested views inside the body first.
		body, err := d.expandViews(body, depth+1)
		if err != nil {
			return nil, err
		}
		viewSeq++
		refName := strings.ToLower(ref.RefName())
		// Fresh aliases for the view's internal tables; '$' cannot
		// appear in user identifiers, so collisions are impossible.
		aliasOf := make(map[string]string, len(body.From))
		for _, bt := range body.From {
			fresh := fmt.Sprintf("%s$%d$%s", refName, viewSeq, strings.ToLower(bt.RefName()))
			aliasOf[strings.ToLower(bt.RefName())] = fresh
			out.From = append(out.From, sqlparser.TableRef{Name: bt.Name, Alias: fresh})
		}
		realias := func(cr *sqlparser.ColumnRef) (sqlparser.Expr, bool) {
			table := strings.ToLower(cr.Table)
			if table == "" {
				// Unqualified inside the view: resolve to whichever of
				// the view's own tables defines it at bind time; with a
				// single table this is unambiguous, with several the
				// original query must have qualified it.
				if len(body.From) == 1 {
					return &sqlparser.ColumnRef{Table: aliasOf[strings.ToLower(body.From[0].RefName())], Name: cr.Name}, true
				}
				return nil, false
			}
			if fresh, ok := aliasOf[table]; ok {
				return &sqlparser.ColumnRef{Table: fresh, Name: cr.Name}, true
			}
			return nil, false
		}
		var outputs []sqlparser.SelectItem
		for _, item := range body.Items {
			rewritten := sqlparser.SubstituteColumns(item.Expr, realias)
			// A view's items all carry explicit names (validateViewBody).
			name := item.ExplicitName()
			subs[colKey{refName, strings.ToLower(name)}] = rewritten
			outputs = append(outputs, sqlparser.SelectItem{Expr: rewritten, Alias: name})
		}
		viewRefs[refName] = outputs
		if body.Where != nil {
			wheres = append(wheres, sqlparser.SubstituteColumns(body.Where, realias))
		}
	}

	// Column substitution for the outer query: qualified view refs are
	// replaced directly; unqualified names are replaced only when they
	// match exactly one view's outputs (base-table columns win at bind
	// time if the name is left untouched — ambiguity there errors).
	substitute := func(cr *sqlparser.ColumnRef) (sqlparser.Expr, bool) {
		col := strings.ToLower(cr.Name)
		if cr.Table != "" {
			if e, ok := subs[colKey{strings.ToLower(cr.Table), col}]; ok {
				return sqlparser.CopyExpr(e), true
			}
			return nil, false
		}
		var match sqlparser.Expr
		count := 0
		for ref := range viewRefs {
			if e, ok := subs[colKey{ref, col}]; ok {
				match = e
				count++
			}
		}
		if count == 1 {
			return sqlparser.CopyExpr(match), true
		}
		return nil, false
	}

	// Expand star items that target a view before substitution.
	var items []sqlparser.SelectItem
	for _, item := range out.Items {
		if item.Star {
			star := strings.ToLower(item.StarTable)
			if star != "" {
				if outputs, ok := viewRefs[star]; ok {
					items = append(items, outputs...)
					continue
				}
				items = append(items, item)
				continue
			}
			// Bare *: view outputs plus pass-through for base tables.
			for _, ref := range sel.From {
				if outputs, ok := viewRefs[strings.ToLower(ref.RefName())]; ok {
					items = append(items, outputs...)
				} else {
					items = append(items, sqlparser.SelectItem{Star: true, StarTable: ref.RefName()})
				}
			}
			continue
		}
		items = append(items, item)
	}
	for i := range items {
		if items[i].Star {
			continue
		}
		// Preserve the user-visible output name through substitution:
		// the name the pre-expansion item has, unless that depends on
		// its position (which expansion keeps).
		if items[i].Alias == "" {
			items[i].Alias = items[i].Name()
		}
		items[i].Expr = sqlparser.SubstituteColumns(items[i].Expr, substitute)
	}
	out.Items = items

	if out.Where != nil {
		out.Where = sqlparser.SubstituteColumns(out.Where, substitute)
	}
	for _, w := range wheres {
		if out.Where == nil {
			out.Where = w
		} else {
			out.Where = &sqlparser.BinaryExpr{Op: "AND", L: out.Where, R: w}
		}
	}
	for i, g := range out.GroupBy {
		out.GroupBy[i] = sqlparser.SubstituteColumns(g, substitute)
	}
	if out.Having != nil {
		out.Having = sqlparser.SubstituteColumns(out.Having, substitute)
	}
	for i, o := range out.OrderBy {
		out.OrderBy[i].Expr = sqlparser.SubstituteColumns(o.Expr, substitute)
	}
	return out, nil
}
