package harness

import (
	"fmt"
	"os"
	"path/filepath"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/extern"
	"repro/internal/odbcsim"
	"repro/internal/sqlgen"
)

// exportX exports table X to a file through the ODBC simulator,
// returning the path and the export statistics.
func exportX(d *statsudf.DB, cfg Config, dir string) (string, odbcsim.Stats, error) {
	t, err := d.Engine().Table("X")
	if err != nil {
		return "", odbcsim.Stats{}, err
	}
	path := filepath.Join(dir, "export.csv")
	f, err := os.Create(path)
	if err != nil {
		return "", odbcsim.Stats{}, err
	}
	st, err := odbcsim.Export(t, f, cfg.ODBC)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, st, err
}

// buildAllModels performs the client-side model math of Table 1 from
// the summaries: correlation, PCA (k=16 capped at d) and linear
// regression treating the last dimension as Y.
func buildAllModels(s *core.NLQ) error {
	if _, err := core.BuildCorrelation(s); err != nil {
		return err
	}
	k := 16
	if k > s.D-1 {
		k = s.D - 1
	}
	if _, err := core.BuildPCA(s, k, core.CorrelationBasis); err != nil {
		return err
	}
	_, err := core.BuildLinReg(s)
	return err
}

// runTable1 reproduces Table 1: total time (summaries + model math) at
// d=32 for n = 100k..1600k, comparing C++ (on a pre-exported file,
// export excluded as in the paper), SQL and the aggregate UDF. The
// correlation and regression columns measure the shared n,L,Q pass
// plus each model's own math.
func runTable1(cfg Config) ([]*Table, error) {
	const dims = 32
	d, cleanup, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	exportDir, err := os.MkdirTemp("", "statsudf-export-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(exportDir)

	t := &Table{
		ID:    "t1",
		Title: fmt.Sprintf("Total time to build models at d=%d (secs)", dims),
		Header: []string{"n x1000(scaled)", "corr C++", "corr SQL", "corr UDF",
			"pca/linreg C++", "pca/linreg SQL", "pca/linreg UDF"},
		Note: "C++ runs single-threaded on a pre-exported file (export time excluded, as in the paper); SQL/UDF run in the 20-way parallel engine.",
	}
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		if err := loadX(d, cfg, n, dims); err != nil {
			return nil, err
		}
		// Pre-export without throttling: Table 1 excludes export time.
		plainODBC := cfg
		plainODBC.ODBC.TimeScale = 0
		path, _, err := exportX(d, plainODBC, exportDir)
		if err != nil {
			return nil, err
		}

		// Each implementation computes n, L, Q its own way — C++ in one
		// thread over the file, SQL and the UDF in the engine — and the
		// same model math runs on top.
		impls := []func() (*core.NLQ, error){
			func() (*core.NLQ, error) {
				return extern.ComputeNLQ(mustOpen(path), dims, extern.Options{SkipLeadingID: true, MatrixType: core.Triangular})
			},
			func() (*core.NLQ, error) { return summarize(d, dims, core.Triangular, statsudf.ViaSQL) },
			func() (*core.NLQ, error) { return summarize(d, dims, core.Triangular, statsudf.ViaUDF) },
		}
		var corr, full [3]Timing
		for i, nlq := range impls {
			corr[i], err = timeIt(cfg, func() error {
				s, err := nlq()
				if err != nil {
					return err
				}
				_, err = core.BuildCorrelation(s)
				return err
			})
			if err != nil {
				return nil, err
			}
			full[i], err = timeIt(cfg, func() error {
				s, err := nlq()
				if err != nil {
					return err
				}
				return buildAllModels(s)
			})
			if err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%d rows)", nk, n),
			secs(corr[0]), secs(corr[1]), secs(corr[2]),
			secs(full[0]), secs(full[1]), secs(full[2]),
		})
	}
	return []*Table{t}, nil
}

// mustOpen re-opens the exported file per run; the external analyzer
// re-reads its input from disk each time, like the table scans.
func mustOpen(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		panic(err) // file was created moments ago by the same process
	}
	return f
}

// runTable2 reproduces Table 2: time for n,L,Q at n ∈ {100k,200k} and
// d ∈ {8..64} for C++/SQL/UDF, plus the modeled ODBC export time.
func runTable2(cfg Config) ([]*Table, error) {
	d, cleanup, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	exportDir, err := os.MkdirTemp("", "statsudf-export-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(exportDir)

	t := &Table{
		ID:     "t2",
		Title:  "Time to compute n, L, Q and time to export X with ODBC (secs)",
		Header: []string{"n x1000(scaled)", "d", "C++", "SQL", "UDF", "ODBC(modeled)"},
		Note:   "ODBC column is the modeled 100 Mbps channel time for the full export (the paper's dominant cost); the other columns are measured.",
	}
	for _, nk := range []int{100, 200} {
		for _, dims := range []int{8, 16, 32, 64} {
			n := cfg.rows(nk)
			if err := loadX(d, cfg, n, dims); err != nil {
				return nil, err
			}
			path, odbcStats, err := exportX(d, cfg, exportDir)
			if err != nil {
				return nil, err
			}
			cppT, err := timeIt(cfg, func() error {
				f := mustOpen(path)
				defer f.Close()
				_, err := extern.ComputeNLQ(f, dims, extern.Options{SkipLeadingID: true, MatrixType: core.Triangular})
				return err
			})
			if err != nil {
				return nil, err
			}
			sqlT, err := timeIt(cfg, func() error {
				_, err := summarize(d, dims, core.Triangular, statsudf.ViaSQL)
				return err
			})
			if err != nil {
				return nil, err
			}
			udfT, err := timeIt(cfg, func() error {
				_, err := summarize(d, dims, core.Triangular, statsudf.ViaUDF)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d (%d rows)", nk, n), itoa(dims),
				secs(cppT), secs(sqlT), secs(udfT),
				secs(odbcStats.Modeled),
			})
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
		// the point of the experiment is that model math never touches X.
		d, cleanup, err := newDB(cfg)
		if err != nil {
			return nil, err
		}
		n := cfg.rows(100)
		if n < 4*dims {
			n = 4 * dims // regression needs n > d+1 even at tiny scales
		}
		if err := loadX(d, cfg, n, dims); err != nil {
			cleanup()
			return nil, err
		}
		s, err := summarize(d, dims, core.Triangular, statsudf.ViaUDF)
		if err != nil {
			cleanup()
			return nil, err
		}
		// Per-cluster summaries for the clustering column.
		groups, err := d.GroupedSummary("X", sqlgen.Dims(dims), core.Diagonal, "i % 16")
		cleanup()
		if err != nil {
			return nil, err
		}

		corrT, err := timeIt(cfg, func() error {
			_, err := core.BuildCorrelation(s)
			return err
		})
		if err != nil {
			return nil, err
		}
		regT, err := timeIt(cfg, func() error {
			_, err := core.BuildLinReg(s)
			return err
		})
		if err != nil {
			return nil, err
		}
		k := 16
		if k > dims-1 {
			k = dims - 1
		}
		pcaT, err := timeIt(cfg, func() error {
			_, err := core.BuildPCA(s, k, core.CorrelationBasis)
			return err
		})
		if err != nil {
			return nil, err
		}
		clusT, err := timeIt(cfg, func() error {
			return finalizeClusters(groups)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(dims), secs(corrT), secs(regT), secs(pcaT), secs(clusT),
		})
	}
	return []*Table{t}, nil
}

// finalizeClusters computes C, R, W from per-cluster summaries — the
// paper's clustering "model build" step once n, L, Q are available.
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
		_ = g.N / n // weight
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
		d, cleanup, err := newDB(cfg)
		if err != nil {
			return nil, err
		}
		n := cfg.rows(100)
		// Very wide tables get expensive quickly; scale rows down
		// further for d > 256 to keep default runs responsive while
		// preserving the calls-vs-time proportionality.
		if dims > 256 {
			n /= 4
			if n < 20 {
				n = 20
			}
		}
		if err := loadX(d, cfg, n, dims); err != nil {
			cleanup()
			return nil, err
		}
		plan, arm, err := blockedArm(d, dims)
		if err != nil {
			cleanup()
			return nil, err
		}
		elapsed, err := timeIt(cfg, arm)
		cleanup()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("100 (%d rows)", n), itoa(dims), itoa(plan.Calls()), secs(elapsed),
		})
	}
	return []*Table{t}, nil
}

// blockedArm is Table 6's timed closure: every nlq_block call of the
// d-dimensional plan in one statement (d = 64 included: one block, so
// the 1-call row is measured on the same path as the rest), decoded by
// the facade's blocked decoder.
func blockedArm(d *statsudf.DB, dims int) (*core.BlockPlan, func() error, error) {
	plan, err := core.PlanBlocks(dims, core.MaxD)
	if err != nil {
		return nil, nil, err
	}
	sql := sqlgen.NLQBlockQuery("X", sqlgen.Dims(dims), plan)
	return plan, func() error {
		res, err := d.Exec(sql)
		if err != nil {
			return err
		}
		_, err = statsudf.DecodeBlockedSummary(res, plan)
		return err
	}, nil
}
