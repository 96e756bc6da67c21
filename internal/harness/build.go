package harness

import (
	"fmt"

	statsudf "repro"
	"repro/internal/core"
)

// sizeLabel is the row label of an n sweep: the paper's n in thousands
// and the rows actually loaded at this scale.
func sizeLabel(nk, n int) string { return fmt.Sprintf("%d (%d rows)", nk, n) }

// correlationOnly is Table 1's first model column.
func correlationOnly(s *core.NLQ) error {
	_, err := core.BuildCorrelation(s)
	return err
}

// buildAllModels performs the client-side model math of Table 1 from
// the summaries: correlation, PCA (k=16 capped at d) and linear
// regression treating the last dimension as Y.
func buildAllModels(s *core.NLQ) error {
	if err := correlationOnly(s); err != nil {
		return err
	}
	if _, err := core.BuildPCA(s, min(16, s.D-1), core.CorrelationBasis); err != nil {
		return err
	}
	_, err := core.BuildLinReg(s)
	return err
}

// runTable1 reproduces Table 1: total time (summaries + model math) at
// d=32 for n = 100k..1600k, comparing C++ (on a pre-exported file,
// export excluded as in the paper), SQL and the aggregate UDF. Each
// implementation computes n, L, Q its own way — C++ in one thread over
// the file, SQL and the UDF in the engine — and the same model math
// runs on top: the correlation columns measure the shared n,L,Q pass
// plus correlation, the others the whole suite.
func runTable1(cfg Config) ([]*Table, error) {
	const dims = 32
	t := &Table{
		ID:    "t1",
		Title: fmt.Sprintf("Total time to build models at d=%d (secs)", dims),
		Header: []string{"n x1000(scaled)", "corr C++", "corr SQL", "corr UDF",
			"pca/linreg C++", "pca/linreg SQL", "pca/linreg UDF"},
		Note: "C++ runs single-threaded on a pre-exported file (export time excluded, as in the paper); SQL/UDF run in the 20-way parallel engine.",
	}
	impls := []summarizer{external, viaFacade(statsudf.ViaSQL, core.Triangular), viaFacade(statsudf.ViaUDF, core.Triangular)}
	var arms []arm
	for _, build := range []func(*core.NLQ) error{correlationOnly, buildAllModels} {
		for _, impl := range impls {
			arms = append(arms, impl.arm(build))
		}
	}
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		err := withDataset(cfg, dataset{n: n, dims: dims}, func(e *env) error {
			// Pre-export without throttling: Table 1 excludes export time.
			plain := cfg.ODBC
			plain.TimeScale = 0
			if _, err := e.exportX(plain); err != nil {
				return err
			}
			ts, err := e.time(arms...)
			if err != nil {
				return err
			}
			t.add(sizeLabel(nk, n), ts)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// runTable2 reproduces Table 2: time for n,L,Q at n ∈ {100k,200k} and
// d ∈ {8..64} for C++/SQL/UDF, plus the modeled ODBC export time.
func runTable2(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "t2",
		Title:  "Time to compute n, L, Q and time to export X with ODBC (secs)",
		Header: []string{"n x1000(scaled)", "d", "C++", "SQL", "UDF", "ODBC(modeled)"},
		Note:   "ODBC column is the modeled 100 Mbps channel time for the full export (the paper's dominant cost); the other columns are measured.",
	}
	for _, nk := range []int{100, 200} {
		for _, dims := range []int{8, 16, 32, 64} {
			n := cfg.rows(nk)
			err := withDataset(cfg, dataset{n: n, dims: dims}, func(e *env) error {
				odbc, err := e.exportX(cfg.ODBC)
				if err != nil {
					return err
				}
				ts, err := e.time(external.arm(nil), sqlArm(core.Triangular), udfArm(core.Triangular))
				if err != nil {
					return err
				}
				t.add(sizeLabel(nk, n), dims, ts, odbc.Modeled)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

// runTable3 reproduces Table 3: model construction time when n, L, Q
// are already available — independent of n, growing only with d.
func runTable3(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "t3",
		Title:  "Time to build models from n, L, Q (secs); independent of n",
		Header: []string{"d", "linear correlation", "linear regression", "PCA", "clustering"},
		Note:   "clustering column is the C/R/W finalization from k=16 per-cluster summaries; all model math runs on d×d matrices only.",
	}
	for _, dims := range []int{4, 8, 16, 32, 64} {
		// Build the summaries once from a small representative sample —
		// the point of the experiment is that model math never touches X
		// (regression needs n > d+1 even at tiny scales).
		n := max(cfg.rows(100), 4*dims)
		err := withDataset(cfg, dataset{n: n, dims: dims}, func(e *env) error {
			s, err := viaFacade(statsudf.ViaUDF, core.Triangular).nlq(e)
			if err != nil {
				return err
			}
			// Per-cluster summaries for the clustering column.
			groups, err := e.db.GroupedSummary("X", e.cols, core.Diagonal, "i % 16")
			if err != nil {
				return err
			}
			ts, err := e.time(
				arm{"correlation", func(*env) error { return correlationOnly(s) }},
				arm{"regression", func(*env) error { _, err := core.BuildLinReg(s); return err }},
				arm{"PCA", func(*env) error {
					_, err := core.BuildPCA(s, min(16, dims-1), core.CorrelationBasis)
					return err
				}},
				arm{"clustering", func(*env) error { return finalizeClusters(groups) }},
			)
			if err != nil {
				return err
			}
			t.add(dims, ts)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// finalizeClusters computes the centroids C and radii R from
// per-cluster summaries — the paper's clustering "model build" step
// once n, L, Q are available.
func finalizeClusters(groups map[string]*core.NLQ) error {
	var n float64
	for _, g := range groups {
		n += g.N
	}
	if n == 0 {
		return fmt.Errorf("harness: no cluster members")
	}
	for _, g := range groups {
		if g.N == 0 {
			continue
		}
		if _, err := g.Mean(); err != nil {
			return err
		}
		if _, err := g.Variances(); err != nil {
			return err
		}
	}
	return nil
}

// runTable6 reproduces Table 6: d ≥ 64 via blocked UDF calls in one
// synchronized scan; total time is proportional to the number of calls.
func runTable6(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "t6",
		Title:  "Time growth for high d via blocked UDF calls (secs)",
		Header: []string{"n x1000(scaled)", "d", "# of UDF calls", "total time"},
		Note:   "lower-triangle block plan: (b²+b)/2 calls for b = d/64 (the paper reports the full-grid count b²); one synchronized scan computes all blocks.",
	}
	for _, dims := range []int{64, 128, 256, 512, 1024} {
		n := cfg.rows(100)
		// Very wide tables get expensive quickly; scale rows down
		// further for d > 256 to keep default runs responsive while
		// preserving the calls-vs-time proportionality.
		if dims > 256 {
			n = max(n/4, 20)
		}
		blocked, calls, err := blockedArm(dims)
		if err != nil {
			return nil, err
		}
		ts, err := measure(cfg, dataset{n: n, dims: dims}, blocked)
		if err != nil {
			return nil, err
		}
		t.add(sizeLabel(100, n), dims, calls, ts)
	}
	return []*Table{t}, nil
}
