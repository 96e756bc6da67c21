// Package bind is the one home of the rule that binds a column
// reference: which FROM entries a SELECT has (a name may appear once),
// which entry and column a qualified or unqualified reference names (an
// unqualified one must be unique), what `*` and `t.*` expand to, and
// where each column sits in the flat row a cross join of the entries
// forms. sema builds a Scope from catalog schemas, the executor from
// table handles, and view expansion from view outputs and view bodies,
// so a name binds the same way wherever it is checked.
package bind

import (
	"fmt"
	"strings"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// Entry is one FROM entry: the name it is addressable by (its alias, or
// the table name), its columns, and the flat-row ordinal of its first
// column. A nil Schema marks an entry whose table did not resolve: it
// owns no columns, and every lookup that could land on it answers
// "unknown" instead of failing, so one bad table name yields one
// diagnostic rather than one per column reference.
type Entry struct {
	Name   string
	Schema *sqltypes.Schema
	Offset int
}

// Scope is the FROM entries of one SELECT, in order. The zero Scope is
// empty and ready to use.
type Scope struct {
	Entries []Entry
}

// Column is a bound reference: the entry that owns it and its index in
// the entry's schema, -1 when an unresolved entry may own it.
type Column struct {
	Entry, Index int
}

// Add appends a FROM entry. A name already in scope is refused.
func (s *Scope) Add(name string, schema *sqltypes.Schema) error {
	offset := 0
	for _, e := range s.Entries {
		if strings.EqualFold(e.Name, name) {
			return fmt.Errorf("duplicate table name %q in FROM; use aliases", name)
		}
		if e.Schema != nil {
			offset += e.Schema.Len()
		}
	}
	s.Entries = append(s.Entries, Entry{Name: name, Schema: schema, Offset: offset})
	return nil
}

// Resolve binds a reference: a qualified one to the entry it names, an
// unqualified one to the only entry that has the column.
func (s *Scope) Resolve(table, column string) (Column, error) {
	if table != "" {
		for i, e := range s.Entries {
			if !strings.EqualFold(e.Name, table) {
				continue
			}
			if e.Schema == nil {
				return Column{Entry: i, Index: -1}, nil
			}
			if j := e.Schema.Index(column); j >= 0 {
				return Column{Entry: i, Index: j}, nil
			}
			return Column{}, fmt.Errorf("table %q has no column %q", table, column)
		}
		return Column{}, fmt.Errorf("unknown table %q", table)
	}
	for i, e := range s.Entries {
		if e.Schema == nil {
			return Column{Entry: i, Index: -1}, nil
		}
	}
	found := Column{Entry: -1}
	for i, e := range s.Entries {
		if j := e.Schema.Index(column); j >= 0 {
			if found.Entry >= 0 {
				return Column{}, fmt.Errorf("ambiguous column %q", column)
			}
			found = Column{Entry: i, Index: j}
		}
	}
	if found.Entry < 0 {
		return Column{}, fmt.Errorf("unknown column %q", column)
	}
	return found, nil
}

// Ordinal binds a reference to its position in the flat row: the
// expr.Resolver the executor compiles against.
func (s *Scope) Ordinal(table, column string) (int, error) {
	c, err := s.Resolve(table, column)
	if err != nil {
		return 0, err
	}
	return s.Entries[c.Entry].Offset + c.Index, nil
}

// Type is a bound column's declared type. ok is false when the type is
// not known: the entry is unresolved, or the column is typed NULL (a
// view's outputs, typed only once the view is expanded).
func (s *Scope) Type(c Column) (t sqltypes.Type, ok bool) {
	if c.Index < 0 {
		return sqltypes.TypeNull, false
	}
	t = s.Entries[c.Entry].Schema.Columns[c.Index].Type
	return t, t != sqltypes.TypeNull
}

// Star expands `table.*` — every entry's columns in order when table is
// "" — into references qualified by their entry, each named after its
// column.
func (s *Scope) Star(table string) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	matched := false
	for _, e := range s.Entries {
		if table != "" && !strings.EqualFold(e.Name, table) {
			continue
		}
		matched = true
		if e.Schema == nil {
			continue
		}
		for _, c := range e.Schema.Columns {
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColumnRef{Table: e.Name, Name: c.Name},
				Alias: c.Name,
			})
		}
	}
	if !matched {
		return nil, fmt.Errorf("%s.* does not match any table in FROM", table)
	}
	return out, nil
}

// Expand rewrites the star items of a select list with Star; other
// items pass through.
func (s *Scope) Expand(items []sqlparser.SelectItem) ([]sqlparser.SelectItem, error) {
	out := make([]sqlparser.SelectItem, 0, len(items))
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		cols, err := s.Star(item.StarTable)
		if err != nil {
			return nil, err
		}
		out = append(out, cols...)
	}
	return out, nil
}
