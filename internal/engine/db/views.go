package db

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine/bind"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sema"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// Views implement §3.6's second scenario: "X exists as a view" whose
// definition involves joins and filters over base tables, with the
// summary/scoring query running over the view. A view answers as the
// table of its rows would. A statement naming one is checked as written
// against viewCatalog, where the view is a table of its outputs, so its
// names bind (bind.Scope) and fail exactly as over base tables. The view
// is then inlined: its FROM entries are spliced in under fresh aliases
// and its WHERE is ANDed in. The body's references are bound in the
// body's own FROM, the statement's through a scope in which the view is
// one entry — an output becomes its defining expression, any other
// reference is qualified by its entry — so neither side can capture the
// other's columns. With the executor's single-table predicate pushdown
// this reproduces the rewrite behavior the paper's optimizer discussion
// assumes.
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
	if err := d.logDDL(catalogRecord{Op: "create_view", View: &catalogView{Name: key, SQL: query.String()}}); err != nil {
		return err
	}
	d.views[key] = query
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
	if err := d.logDDL(catalogRecord{Op: "drop_view", Name: key}); err != nil {
		return err
	}
	delete(d.views, key)
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

// viewCatalog is the catalog a statement naming a view is checked
// against before expansion: a view is a table whose columns are its
// outputs, typed NULL — unknown until the expanded statement is checked.
type viewCatalog struct{ d *DB }

func (c viewCatalog) TableSchema(name string) (*sqltypes.Schema, error) {
	body, ok := c.d.view(name)
	if !ok {
		return c.d.TableSchema(name)
	}
	cols := make([]sqltypes.Column, len(body.Items))
	for i, item := range body.Items {
		cols[i] = sqltypes.Column{Name: item.ExplicitName(), Type: sqltypes.TypeNull}
	}
	return &sqltypes.Schema{Columns: cols}, nil
}

// expandViews rewrites a SELECT so that no FROM entry names a view.
func (d *DB) expandViews(sel *sqlparser.Select, depth int) (*sqlparser.Select, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("db: view expansion exceeds depth %d (cyclic views?)", maxViewDepth)
	}
	if !slices.ContainsFunc(sel.From, func(ref sqlparser.TableRef) bool { return d.HasView(ref.Name) }) {
		return sel, nil
	}
	env := exec.SemaEnv(d.env())
	env.Catalog = viewCatalog{d}
	if err := sema.CheckSelect(sel, env); err != nil {
		return nil, err
	}

	// The statement's scope, each view one entry, and per entry the
	// defining expressions of a view's outputs. A view's WHERE goes
	// first: the statement's predicates see only the view's rows.
	sc := &bind.Scope{}
	outputs := make([][]sqlparser.Expr, len(sel.From))
	out := &sqlparser.Select{Limit: sel.Limit, At: sel.At}
	for i, ref := range sel.From {
		schema, err := env.Catalog.TableSchema(ref.Name)
		if err != nil {
			return nil, err
		}
		if err := sc.Add(ref.RefName(), schema); err != nil {
			return nil, err
		}
		body, isView := d.view(ref.Name)
		if !isView {
			out.From = append(out.From, ref)
			continue
		}
		if outputs[i], err = d.inline(out, ref, body, i, depth); err != nil {
			return nil, fmt.Errorf("db: view %q: %w", ref.Name, err)
		}
	}

	var bad error
	rebind := func(e sqlparser.Expr) sqlparser.Expr {
		return sqlparser.SubstituteColumns(e, func(cr *sqlparser.ColumnRef) (sqlparser.Expr, bool) {
			c, err := sc.Resolve(cr.Table, cr.Name)
			if err != nil {
				bad = cmp.Or(bad, err)
				return nil, false
			}
			if exprs := outputs[c.Entry]; exprs != nil {
				return sqlparser.CopyExpr(exprs[c.Index]), true
			}
			return &sqlparser.ColumnRef{Table: sc.Entries[c.Entry].Name, Name: cr.Name, At: cr.At}, true
		})
	}
	items, err := sc.Expand(sel.Items)
	if err != nil {
		return nil, err
	}
	for i := range items {
		// Rebinding changes the text; the output name stays.
		items[i].Alias = sqlparser.OutputName(items[i], i)
		items[i].Expr = rebind(items[i].Expr)
	}
	out.Items = items
	out.Where = and(out.Where, rebind(sel.Where))
	for _, g := range sel.GroupBy {
		out.GroupBy = append(out.GroupBy, rebind(g))
	}
	out.Having = rebind(sel.Having)
	// A key that sorts on the output names an output column, not a
	// FROM column, and stays as written.
	outNames, _ := sqlparser.OutputNames(sel)
	for _, o := range sel.OrderBy {
		if !sqlparser.OrderKeyOnOutput(o.Expr, outNames) {
			o.Expr = rebind(o.Expr)
		}
		out.OrderBy = append(out.OrderBy, o)
	}
	if bad != nil {
		return nil, bad
	}
	return out, nil
}

// inline splices the view entry ref, whose body is body, into out: the
// body's FROM entries under aliases ref$seq$entry ('$' cannot appear in
// a user identifier) and its WHERE. It returns the defining expressions
// of the view's outputs. Every body column is bound in the body's own
// FROM and qualified by those aliases.
func (d *DB) inline(out *sqlparser.Select, ref sqlparser.TableRef, body *sqlparser.Select, seq, depth int) ([]sqlparser.Expr, error) {
	body, err := d.expandViews(body, depth+1)
	if err != nil {
		return nil, err
	}
	sc := &bind.Scope{}
	aliases := make([]string, len(body.From))
	for i, bt := range body.From {
		schema, err := d.TableSchema(bt.Name)
		if err != nil {
			return nil, err
		}
		if err := sc.Add(bt.RefName(), schema); err != nil {
			return nil, err
		}
		aliases[i] = fmt.Sprintf("%s$%d$%s", strings.ToLower(ref.RefName()), seq, strings.ToLower(bt.RefName()))
		out.From = append(out.From, sqlparser.TableRef{Name: bt.Name, Alias: aliases[i]})
	}
	var bad error
	qualify := func(e sqlparser.Expr) sqlparser.Expr {
		return sqlparser.SubstituteColumns(e, func(cr *sqlparser.ColumnRef) (sqlparser.Expr, bool) {
			c, err := sc.Resolve(cr.Table, cr.Name)
			if err != nil {
				bad = cmp.Or(bad, err)
				return nil, false
			}
			return &sqlparser.ColumnRef{Table: aliases[c.Entry], Name: cr.Name, At: cr.At}, true
		})
	}
	exprs := make([]sqlparser.Expr, len(body.Items))
	for i, item := range body.Items {
		exprs[i] = qualify(item.Expr)
	}
	out.Where = and(out.Where, qualify(body.Where))
	return exprs, bad
}

// and conjoins two predicates, either of which may be absent.
func and(l, r sqlparser.Expr) sqlparser.Expr {
	if l == nil || r == nil {
		return cmp.Or(l, r)
	}
	return &sqlparser.BinaryExpr{Op: "AND", L: l, R: r}
}
