package db

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/summary"
)

// SummaryNLQ returns the n/L/Q summary of the named base table over
// cols (nil selects every DOUBLE column), going through the summary
// catalog: a warm entry that covers the table is served in O(d²) with
// zero partition scans, one behind it reads only the rows appended
// since, and a cold one reads every row with one parallel scan. hit
// reports a warm entry. The returned NLQ is the caller's to mutate.
//
// Virtual sys. tables are rejected — they are materialized fresh per
// scan, so a summary over one can never be warm.
func (d *DB) SummaryNLQ(ctx context.Context, table string, cols []string, mt core.MatrixType) (s *core.NLQ, hit bool, err error) {
	if IsSystemTable(table) {
		return nil, false, fmt.Errorf("db: summaries are not maintained for system table %q", table)
	}
	t, err := d.Table(table)
	if err != nil {
		return nil, false, err
	}
	if len(cols) == 0 {
		for _, c := range t.Schema().Columns {
			if c.Type == sqltypes.TypeDouble {
				cols = append(cols, c.Name)
			}
		}
		if len(cols) == 0 {
			return nil, false, fmt.Errorf("db: table %q has no DOUBLE columns to summarize", table)
		}
	}
	return d.sums.NLQ(ctx, t, cols, mt)
}

// InvalidateSummaries marks every cached summary of the named table
// cold, forcing the next read of each to read every row. The bench
// harness uses it to re-measure cold builds.
func (d *DB) InvalidateSummaries(table string) { d.sums.Invalidate(table) }

// Summaries snapshots the summary catalog; sys.summaries serves it.
func (d *DB) Summaries() []summary.Info { return d.sums.Snapshot() }
