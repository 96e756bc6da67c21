package harness

import (
	"fmt"
	"os"

	statsudf "repro"
	"repro/internal/engine/sqltypes"
	"repro/internal/odbcsim"
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
	d, cleanup, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// One wire server fronts the same engine for the whole experiment,
	// with a pooled client dialed to it — the twmd topology, in-process.
	srv, err := serve(d.Engine())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "harness", PoolSize: 2})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	dcols := sqlgen.Dims(dims)
	for _, nk := range []int{100, 200, 400} {
		n := cfg.rows(nk)
		if err := prepareScoringModels(d, cfg, n, dims, k); err != nil {
			return nil, err
		}
		sql := sqlgen.RegScoreUDF("X", "BETA", "i", dcols)

		inproc, err := timeIt(cfg, func() error { return discard(cfg, d, sql) })
		if err != nil {
			return nil, err
		}
		wireT, err := timeIt(cfg, func() error {
			_, err := pool.QueryStream(cfg.ctx(), sql, func(sqltypes.Row) error { return nil })
			return err
		})
		if err != nil {
			return nil, err
		}
		exportSecs, err := exportModeledSecs(cfg, d)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%d rows)", nk, n),
			secs(inproc), secs(wireT), fmt.Sprintf("%.4f", exportSecs),
		})
	}
	return []*Table{t}, nil
}

// exportModeledSecs exports X through the simulated ODBC channel and
// returns the modeled transfer seconds.
func exportModeledSecs(cfg Config, d *statsudf.DB) (float64, error) {
	t, err := d.Engine().Table("X")
	if err != nil {
		return 0, err
	}
	f, err := os.CreateTemp("", "statsudf-a4-*.csv")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	st, err := odbcsim.Export(t, f, cfg.ODBC)
	f.Close()
	if err != nil {
		return 0, err
	}
	return st.Modeled.Seconds(), nil
}
