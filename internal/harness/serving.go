package harness

import (
	"fmt"

	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
	"repro/pkg/client"
)

// runServingScoring (a4) compares the three ways scores can leave the
// system: consumed in-process (the paper's in-DBMS ideal), streamed to
// a remote client over the wire protocol (what twmd serves), and the
// paper's strawman — exporting the data set over simulated ODBC so an
// external program can score it. The first two scan and score inside
// the engine; the export pays serialization and the modeled channel
// before any scoring happens at all.
func runServingScoring(cfg Config) ([]*Table, error) {
	const dims, k = 8, 4
	t := &Table{
		ID:     "a4",
		Title:  fmt.Sprintf("Regression scoring delivery at d=%d: in-engine vs wire client vs ODBC export (secs)", dims),
		Header: []string{"n x1000(scaled)", "in-engine", "wire client", "odbc export (modeled)"},
		Note:   "in-engine and wire run the same scoring UDF scan; odbc export is the modeled channel time to even get X out of the DBMS.",
	}
	for _, nk := range []int{100, 200, 400} {
		n := cfg.rows(nk)
		err := withDataset(cfg, dataset{n: n, dims: dims, models: k}, func(e *env) error {
			// A wire server fronts the engine, with a pooled client
			// dialed to it — the twmd topology, in-process.
			srv, err := serve(e.db.Engine())
			if err != nil {
				return err
			}
			defer srv.Close()
			pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "harness", PoolSize: 2})
			if err != nil {
				return err
			}
			defer pool.Close()

			sql := sqlgen.RegScoreUDF("X", "BETA", "i", e.cols)
			ts, err := e.time(
				arm{"in-engine", func(e *env) error { return discard(cfg, e.db, sql) }},
				arm{"wire client", func(*env) error {
					_, err := pool.QueryStream(cfg.ctx(), sql, func(sqltypes.Row) error { return nil })
					return err
				}},
			)
			if err != nil {
				return err
			}
			export, err := e.exportX(cfg.ODBC)
			if err != nil {
				return err
			}
			t.add(sizeLabel(nk, n), ts, export.Modeled)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
