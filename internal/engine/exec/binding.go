package exec

import (
	"fmt"

	"repro/internal/engine/bind"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/storage"
)

// binding is a statement's FROM scope — bind.Scope's rules over the
// flat row the FROM tables form cross-joined in order — with the table
// handle of each entry.
type binding struct {
	bind.Scope
	tables []*storage.Table
}

func bindFrom(from []sqlparser.TableRef, cat Catalog) (*binding, error) {
	b := &binding{}
	for _, ref := range from {
		t, err := cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		if err := b.add(ref.RefName(), t); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// add appends t as the FROM entry named name.
func (b *binding) add(name string, t *storage.Table) error {
	if err := b.Add(name, t.Schema()); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	b.tables = append(b.tables, t)
	return nil
}
