package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sqlgen"
)

// runExecutorStats surfaces the executor's per-query statistics — the
// observability half of the parallel scan core: rows and bytes
// scanned, how evenly the partitions shared the work, and where the
// wall time went across the aggregate UDF protocol's four phases.
// The paper reports only end-to-end seconds; this table shows what
// those seconds were spent on.
func runExecutorStats(cfg Config) ([]*Table, error) {
	const dims = 16
	t := &Table{
		ID:    "a3",
		Title: "Executor statistics: scan volume, partition skew, phase times",
		Header: []string{"query", "rows scanned", "bytes", "emitted",
			"parts", "skew", "plan", "scan", "merge", "finalize", "total"},
		Note: "phase times map to the aggregate UDF protocol: scan = init+accumulate (1-2), merge = partial merge (3), finalize = result packing (4).",
	}
	err := withDataset(cfg, dataset{n: cfg.rows(100), dims: dims}, func(e *env) error {
		for _, q := range statsQueries(dims) {
			res, err := e.db.Exec(q.sql)
			if err != nil {
				return err
			}
			s := res.Stats
			if s == nil {
				return fmt.Errorf("harness: no stats recorded for %s", q.label)
			}
			t.add(q.label, int(s.RowsScanned), int(s.BytesRead), int(s.RowsEmitted), s.Partitions,
				number("%.2f", s.Skew()), s.Plan, s.Scan, s.Merge, s.Finalize, s.Total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// statsQuery is one labelled statement of the a3 table.
type statsQuery struct{ label, sql string }

// statsQueries are the three plan shapes a3 accounts for: an aggregate
// UDF, a grouped built-in aggregate and a filtered projection.
func statsQueries(dims int) []statsQuery {
	return []statsQuery{
		{"aggregate UDF (nlq_list)", sqlgen.NLQUDFQuery("X", sqlgen.Dims(dims), core.Triangular, sqlgen.ListStyle)},
		{"grouped sum", "SELECT i % 8, sum(X1), sum(X2) FROM X GROUP BY i % 8"},
		{"projection", "SELECT i, X1 + X2 FROM X WHERE X1 > 0"},
	}
}
