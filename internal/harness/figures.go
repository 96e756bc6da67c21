package harness

import (
	"fmt"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/sqlgen"
)

// measureNLQ loads X(n, dims) and times one n,L,Q computation through
// the chosen facade method.
func measureNLQ(cfg Config, n, dims int, mt core.MatrixType, via statsudf.SummaryMethod) (float64, error) {
	d, cleanup, err := newDB(cfg)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	if err := loadX(d, cfg, n, dims); err != nil {
		return 0, err
	}
	elapsed, err := timeIt(cfg, func() error {
		_, err := summarize(d, dims, mt, via)
		return err
	})
	if err != nil {
		return 0, err
	}
	return elapsed.Seconds(), nil
}

// runFigure1 reproduces Figure 1: SQL vs aggregate UDF as n grows, at
// d ∈ {8, 16, 32, 64}, triangular matrix.
func runFigure1(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "f1",
		Title:  "SQL vs aggregate UDF varying n, triangular matrix (secs)",
		Header: []string{"n x1000(scaled)", "SQL d=8", "UDF d=8", "SQL d=16", "UDF d=16", "SQL d=32", "UDF d=32", "SQL d=64", "UDF d=64"},
		Note:   "the paper's crossover: SQL competitive (even ahead) at low d, UDF clearly ahead at d=64; SQL non-linear at small n from statement parse overhead.",
	}
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		row := []string{fmt.Sprintf("%d (%d rows)", nk, n)}
		for _, dims := range []int{8, 16, 32, 64} {
			sqlS, err := measureNLQ(cfg, n, dims, core.Triangular, statsudf.ViaSQL)
			if err != nil {
				return nil, err
			}
			udfS, err := measureNLQ(cfg, n, dims, core.Triangular, statsudf.ViaUDF)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", sqlS), fmt.Sprintf("%.4f", udfS))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// runFigure2 reproduces Figure 2: SQL vs aggregate UDF as d grows, for
// n ∈ {100k, 200k, 800k, 1600k}.
func runFigure2(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "f2",
		Title:  "SQL vs aggregate UDF varying d, triangular matrix (secs)",
		Header: []string{"d", "SQL n=100k", "UDF n=100k", "SQL n=200k", "UDF n=200k", "SQL n=800k", "UDF n=800k", "SQL n=1600k", "UDF n=1600k"},
		Note:   "SQL grows quadratically in d (the 1+d+d² interpreted terms); the UDF is near-linear, dominated by the O(d·n) scan I/O.",
	}
	for _, dims := range []int{8, 16, 32, 48, 64} {
		row := []string{itoa(dims)}
		for _, nk := range []int{100, 200, 800, 1600} {
			n := cfg.rows(nk)
			sqlS, err := measureNLQ(cfg, n, dims, core.Triangular, statsudf.ViaSQL)
			if err != nil {
				return nil, err
			}
			udfS, err := measureNLQ(cfg, n, dims, core.Triangular, statsudf.ViaUDF)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", sqlS), fmt.Sprintf("%.4f", udfS))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// runFigure3 reproduces Figure 3: parameter passing style — string vs
// list — varying n at d=8 (left plot) and varying d at n=1600k (right
// plot).
func runFigure3(cfg Config) ([]*Table, error) {
	left := &Table{
		ID:     "f3",
		Title:  "Parameter passing varying n at d=8 (secs)",
		Header: []string{"n x1000(scaled)", "string", "list"},
	}
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		strS, err := measureNLQ(cfg, n, 8, core.Triangular, statsudf.ViaUDFString)
		if err != nil {
			return nil, err
		}
		listS, err := measureNLQ(cfg, n, 8, core.Triangular, statsudf.ViaUDF)
		if err != nil {
			return nil, err
		}
		left.Rows = append(left.Rows, []string{
			fmt.Sprintf("%d (%d rows)", nk, n), fmt.Sprintf("%.4f", strS), fmt.Sprintf("%.4f", listS),
		})
	}
	right := &Table{
		ID:     "f3",
		Title:  "Parameter passing varying d at n=1600k-scaled (secs)",
		Header: []string{"d", "string", "list"},
		Note:   "the string style pays the per-row number→string→number conversion; the gap widens with d (the paper's counter-intuitive finding that conversion beats the d² arithmetic as the dominant cost).",
	}
	n := cfg.rows(1600)
	for _, dims := range []int{8, 16, 32, 48, 64} {
		strS, err := measureNLQ(cfg, n, dims, core.Triangular, statsudf.ViaUDFString)
		if err != nil {
			return nil, err
		}
		listS, err := measureNLQ(cfg, n, dims, core.Triangular, statsudf.ViaUDF)
		if err != nil {
			return nil, err
		}
		right.Rows = append(right.Rows, []string{itoa(dims), fmt.Sprintf("%.4f", strS), fmt.Sprintf("%.4f", listS)})
	}
	return []*Table{left, right}, nil
}

// runFigure4 reproduces Figure 4: matrix-type optimization — diagonal
// vs triangular vs full — varying n at d=64 and varying d at n=1600k.
func runFigure4(cfg Config) ([]*Table, error) {
	left := &Table{
		ID:     "f4",
		Title:  "Matrix optimization varying n at d=64 (secs)",
		Header: []string{"n x1000(scaled)", "diag", "triang", "full"},
	}
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		row := []string{fmt.Sprintf("%d (%d rows)", nk, n)}
		for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
			s, err := measureNLQ(cfg, n, 64, mt, statsudf.ViaUDF)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", s))
		}
		left.Rows = append(left.Rows, row)
	}
	right := &Table{
		ID:     "f4",
		Title:  "Matrix optimization varying d at n=1600k-scaled (secs)",
		Header: []string{"d", "diag", "triang", "full"},
		Note:   "d operations (diag) vs d(d+1)/2 (triang) vs d² (full) per row; the gap is marginal at low d and grows at d=64 — but I/O keeps all three closer than operation counts suggest.",
	}
	n := cfg.rows(1600)
	for _, dims := range []int{8, 16, 32, 48, 64} {
		row := []string{itoa(dims)}
		for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
			s, err := measureNLQ(cfg, n, dims, mt, statsudf.ViaUDF)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", s))
		}
		right.Rows = append(right.Rows, row)
	}
	return []*Table{left, right}, nil
}

// runFigure5 reproduces Figure 5: aggregate UDF time complexity in n
// (left: d ∈ {32, 64} × three matrix types) and in d (right:
// n ∈ {800k, 1600k} × three matrix types) — all curves linear.
func runFigure5(cfg Config) ([]*Table, error) {
	left := &Table{
		ID:     "f5",
		Title:  "Aggregate UDF time varying n (secs)",
		Header: []string{"n x1000(scaled)", "diag d=32", "triang d=32", "full d=32", "diag d=64", "triang d=64", "full d=64"},
	}
	for _, nk := range []int{100, 200, 400, 800, 1600} {
		n := cfg.rows(nk)
		row := []string{fmt.Sprintf("%d (%d rows)", nk, n)}
		for _, dims := range []int{32, 64} {
			for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
				s, err := measureNLQ(cfg, n, dims, mt, statsudf.ViaUDF)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.4f", s))
			}
		}
		left.Rows = append(left.Rows, row)
	}
	right := &Table{
		ID:     "f5",
		Title:  "Aggregate UDF time varying d (secs)",
		Header: []string{"d", "diag n=800k", "triang n=800k", "full n=800k", "diag n=1600k", "triang n=1600k", "full n=1600k"},
		Note:   "linear growth in both n and d confirms the UDF is I/O-bound: up to d² in-memory operations ride along with the scan.",
	}
	for _, dims := range []int{8, 16, 32, 48, 64} {
		row := []string{itoa(dims)}
		for _, nk := range []int{800, 1600} {
			n := cfg.rows(nk)
			for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
				s, err := measureNLQ(cfg, n, dims, mt, statsudf.ViaUDF)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.4f", s))
			}
		}
		right.Rows = append(right.Rows, row)
	}
	return []*Table{left, right}, nil
}

// runTable5 reproduces Table 5: the aggregate UDF under GROUP BY with
// k groups (mod(i, k)), diagonal matrices at d=32, string vs list.
func runTable5(cfg Config) ([]*Table, error) {
	const dims = 32
	t := &Table{
		ID:     "t5",
		Title:  fmt.Sprintf("GROUP BY aggregate UDF varying groups k at d=%d (secs)", dims),
		Header: []string{"n x1000(scaled)", "k", "string", "list"},
		Note:   "each group maintains its own n, L, Q state; the paper observed list faster than string throughout, with costs jumping as group count (and state memory) grows.",
	}
	for _, nk := range []int{800, 1600} {
		n := cfg.rows(nk)
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			d, cleanup, err := newDB(cfg)
			if err != nil {
				return nil, err
			}
			if err := loadX(d, cfg, n, dims); err != nil {
				cleanup()
				return nil, err
			}
			var strS, listS float64
			for _, style := range []sqlgen.PassStyle{sqlgen.StringStyle, sqlgen.ListStyle} {
				elapsed, err := timeIt(cfg, groupByArm(d, dims, k, style))
				if err != nil {
					cleanup()
					return nil, err
				}
				if style == sqlgen.StringStyle {
					strS = elapsed.Seconds()
				} else {
					listS = elapsed.Seconds()
				}
			}
			cleanup()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d (%d rows)", nk, n), itoa(k),
				fmt.Sprintf("%.4f", strS), fmt.Sprintf("%.4f", listS),
			})
		}
	}
	return []*Table{t}, nil
}

// groupByArm is Table 5's timed closure: the aggregate UDF under
// GROUP BY i % k in the given passing style, one row per group back.
// Both styles stop at counting rows, so neither pays a decode the
// other does not.
func groupByArm(d *statsudf.DB, dims, k int, style sqlgen.PassStyle) func() error {
	sql := sqlgen.NLQUDFGroupQuery("X", sqlgen.Dims(dims), core.Diagonal, style, fmt.Sprintf("i %% %d", k))
	return func() error {
		res, err := d.Exec(sql)
		if err != nil {
			return err
		}
		if len(res.Rows) != k {
			return fmt.Errorf("harness: got %d groups, want %d", len(res.Rows), k)
		}
		return nil
	}
}

// runAblatePartitions isolates the engine's parallelism: the same UDF
// computation with 1, 4 and 20 partitions (DESIGN.md §4 ablation).
func runAblatePartitions(cfg Config) ([]*Table, error) {
	const dims = 32
	t := &Table{
		ID:     "a1",
		Title:  "Ablation: aggregate UDF time vs partition count (secs)",
		Header: []string{"n x1000(scaled)", "P=1", "P=4", "P=20"},
		Note:   "the paper's Teradata ran 20 shared-nothing threads; this isolates how much of the UDF's win is the parallel partial aggregation.",
	}
	for _, nk := range []int{400, 1600} {
		n := cfg.rows(nk)
		row := []string{fmt.Sprintf("%d (%d rows)", nk, n)}
		for _, p := range []int{1, 4, 20} {
			pc := cfg
			pc.Partitions = p
			s, err := measureNLQ(pc, n, dims, core.Triangular, statsudf.ViaUDF)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", s))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// runAblateSQLStyle compares §3.4's SQL alternatives: the single long
// query against one statement per matrix cell.
func runAblateSQLStyle(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "a2",
		Title:  "Ablation: one long SQL query vs per-cell statements (secs)",
		Header: []string{"d", "long query", "per-cell statements", "statements"},
		Note:   "the per-cell alternative re-scans X for every Q entry; the long query is the paper's one-scan rewrite.",
	}
	n := cfg.rows(100)
	for _, dims := range []int{4, 8, 16} {
		d, cleanup, err := newDB(cfg)
		if err != nil {
			return nil, err
		}
		if err := loadX(d, cfg, n, dims); err != nil {
			cleanup()
			return nil, err
		}
		longT, err := timeIt(cfg, func() error {
			_, err := summarize(d, dims, core.Triangular, statsudf.ViaSQL)
			return err
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		stmts := sqlgen.NLQQueriesPerCell("X", sqlgen.Dims(dims))
		cellT, err := timeIt(cfg, func() error { return execAll(d, stmts) })
		cleanup()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{itoa(dims), secs(longT), secs(cellT), itoa(len(stmts))})
	}
	return []*Table{t}, nil
}
