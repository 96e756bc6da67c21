package exec

import (
	"fmt"
	"strings"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/storage"
)

// boundTable is one FROM entry resolved against the catalog, with its
// offset in the flattened join row.
type boundTable struct {
	ref    sqlparser.TableRef
	table  *storage.Table
	offset int
}

// binding resolves column references against the flattened row formed
// by cross-joining the FROM tables in order.
type binding struct {
	tables []boundTable
}

func bindFrom(from []sqlparser.TableRef, cat Catalog) (*binding, error) {
	b := &binding{}
	seen := make(map[string]bool)
	width := 0
	for _, ref := range from {
		t, err := cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(ref.RefName())
		if seen[name] {
			return nil, fmt.Errorf("exec: duplicate table name %q in FROM; use aliases", ref.RefName())
		}
		seen[name] = true
		b.tables = append(b.tables, boundTable{ref: ref, table: t, offset: width})
		width += t.Schema().Len()
	}
	return b, nil
}

// resolve maps a (table, column) reference to a flat-row ordinal.
func (b *binding) resolve(table, column string) (int, error) {
	if table != "" {
		for _, bt := range b.tables {
			if strings.EqualFold(bt.ref.RefName(), table) {
				idx := bt.table.Schema().Index(column)
				if idx < 0 {
					return 0, fmt.Errorf("exec: table %q has no column %q", table, column)
				}
				return bt.offset + idx, nil
			}
		}
		return 0, fmt.Errorf("exec: unknown table %q", table)
	}
	found := -1
	for _, bt := range b.tables {
		if idx := bt.table.Schema().Index(column); idx >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %q", column)
			}
			found = bt.offset + idx
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %q", column)
	}
	return found, nil
}

// expandStars rewrites `*` and `t.*` select items into explicit column
// references.
func expandStars(items []sqlparser.SelectItem, b *binding) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, bt := range b.tables {
			if item.StarTable != "" && !strings.EqualFold(bt.ref.RefName(), item.StarTable) {
				continue
			}
			matched = true
			for _, c := range bt.table.Schema().Columns {
				out = append(out, sqlparser.SelectItem{
					Expr:  &sqlparser.ColumnRef{Table: bt.ref.RefName(), Name: c.Name},
					Alias: c.Name,
				})
			}
		}
		if !matched {
			return nil, fmt.Errorf("exec: %s.* does not match any table", item.StarTable)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exec: SELECT list is empty")
	}
	return out, nil
}
