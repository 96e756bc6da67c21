package harness

import "fmt"

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
	for _, nk := range []int{100, 200, 400, 800} {
		n := cfg.rows(nk)
		err := withDataset(cfg, dataset{n: n, dims: dims, models: k}, func(e *env) error {
			for _, tech := range techniques {
				ts, err := e.time(tech.sql, tech.udf)
				if err != nil {
					return err
				}
				t.add(sizeLabel(nk, n), tech.name, ts)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
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
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		ts, err := measure(cfg, dataset{n: n, dims: dims, models: k}, techniques[0].udf, techniques[1].udf, techniques[2].udf)
		if err != nil {
			return nil, err
		}
		t.add(sizeLabel(nk, n), ts)
	}
	return []*Table{t}, nil
}
