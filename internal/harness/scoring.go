package harness

import (
	"fmt"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
)

// prepareScoringModels loads a regression workload and runs the
// facade's train-and-store sequence for the three scorable models
// (BETA, MU/LAMBDA, C/R/W); model training is not part of the timed
// scoring runs.
func prepareScoringModels(d *statsudf.DB, cfg Config, n, dims, k int) error {
	// Regression data: planted linear model over the mixture points.
	beta := make([]float64, dims)
	for a := range beta {
		beta[a] = float64(a%5) - 2
	}
	if err := d.GenerateRegression("X", statsudf.MixtureConfig{N: n, D: dims, Seed: cfg.Seed}, 10, beta, 5); err != nil {
		return err
	}
	cols := sqlgen.Dims(dims)
	lr, err := d.LinearRegression("X", cols, "Y")
	if err != nil {
		return err
	}
	if err := d.StoreRegression("BETA", lr); err != nil {
		return err
	}
	pca, err := d.PCA("X", cols, min(k, dims-1), core.CorrelationBasis)
	if err != nil {
		return err
	}
	if err := d.StorePCA("MU", "LAMBDA", pca); err != nil {
		return err
	}
	// One incremental pass is enough for scoring benchmarks (the model
	// only supplies C).
	km, err := d.KMeans("X", cols, k, core.KMeansOptions{Seed: 7, Incremental: true})
	if err != nil {
		return err
	}
	return d.StoreKMeans("C", "R", "W", km)
}

// discard streams query rows without retaining them; scoring
// benchmarks measure the scan+compute cost, not materialization. The
// run context cancels the scan mid-statement (graceful bench shutdown).
func discard(cfg Config, d *statsudf.DB, sql string) error {
	_, _, err := d.Engine().QueryStreamContext(cfg.ctx(), sql, func(sqltypes.Row) error { return nil })
	return err
}

// runTable4 reproduces Table 4: scoring time at d=32, k=16 for
// regression, PCA and clustering, SQL expressions vs scalar UDFs.
func runTable4(cfg Config) ([]*Table, error) {
	const dims, k = 32, 16
	t := &Table{
		ID:     "t4",
		Title:  fmt.Sprintf("Time to score X at d=%d and k=%d (secs)", dims, k),
		Header: []string{"n x1000(scaled)", "technique", "SQL", "UDF"},
		Note:   "clustering SQL is the paper's two-scan plan (distance table + argmin CASE); everything else is one scan.",
	}
	d, cleanup, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	dims32 := sqlgen.Dims(dims)
	for _, nk := range []int{100, 200, 400, 800} {
		n := cfg.rows(nk)
		if err := prepareScoringModels(d, cfg, n, dims, k); err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d (%d rows)", nk, n)

		regSQL, err := timeIt(cfg, func() error { return discard(cfg, d, sqlgen.RegScoreSQL("X", "BETA", "i", dims32)) })
		if err != nil {
			return nil, err
		}
		regUDF, err := timeIt(cfg, func() error { return discard(cfg, d, sqlgen.RegScoreUDF("X", "BETA", "i", dims32)) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{label, "linear regression", secs(regSQL), secs(regUDF)})

		pcaSQL, err := timeIt(cfg, func() error { return discard(cfg, d, sqlgen.PCAScoreSQL("X", "MU", "LAMBDA", "i", dims32, k)) })
		if err != nil {
			return nil, err
		}
		pcaUDF, err := timeIt(cfg, func() error { return discard(cfg, d, sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", dims32, k)) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{label, "PCA", secs(pcaSQL), secs(pcaUDF)})

		clusSQL, err := timeIt(cfg, func() error { return runClusterScoreSQL(cfg, d, dims32, k) })
		if err != nil {
			return nil, err
		}
		clusUDF, err := timeIt(cfg, func() error { return discard(cfg, d, sqlgen.ClusterScoreUDF("X", "C", "i", dims32, k)) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{label, "clustering", secs(clusSQL), secs(clusUDF)})
	}
	return []*Table{t}, nil
}

// runClusterScoreSQL executes the paper's two-scan SQL clustering
// scoring plan end to end.
func runClusterScoreSQL(cfg Config, d *statsudf.DB, dims []string, k int) error {
	stmts := sqlgen.ClusterScoreSQL("X", "C", "XD", "i", dims, k)
	if err := execAll(d, stmts[:len(stmts)-1]); err != nil {
		return err
	}
	return discard(cfg, d, stmts[len(stmts)-1])
}

// execAll runs the statements in order, dropping their results.
func execAll(d *statsudf.DB, stmts []string) error {
	for _, s := range stmts {
		if _, err := d.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

// runFigure6 reproduces Figure 6: scoring UDF time vs n for the three
// techniques at d=32, k=16 — all three scale linearly, with clustering
// the most demanding, then PCA, then regression.
func runFigure6(cfg Config) ([]*Table, error) {
	const dims, k = 32, 16
	t := &Table{
		ID:     "f6",
		Title:  fmt.Sprintf("Scalar UDF scoring time varying n (d=%d, k=%d; secs)", dims, k),
		Header: []string{"n x1000(scaled)", "linear regression", "PCA", "clustering"},
	}
	d, cleanup, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	dims32 := sqlgen.Dims(dims)
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		if err := prepareScoringModels(d, cfg, n, dims, k); err != nil {
			return nil, err
		}
		var reg, pca, clus Timing
		if reg, err = timeIt(cfg, func() error { return discard(cfg, d, sqlgen.RegScoreUDF("X", "BETA", "i", dims32)) }); err != nil {
			return nil, err
		}
		if pca, err = timeIt(cfg, func() error { return discard(cfg, d, sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", dims32, k)) }); err != nil {
			return nil, err
		}
		if clus, err = timeIt(cfg, func() error { return discard(cfg, d, sqlgen.ClusterScoreUDF("X", "C", "i", dims32, k)) }); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%d rows)", nk, n), secs(reg), secs(pca), secs(clus),
		})
	}
	return []*Table{t}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
