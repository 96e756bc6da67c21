package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sqlgen"
)

// The grids of Figures 1-5: n in thousands (at Scale 1) and d.
var (
	sweepN = []int{100, 200, 400, 800, 1600}
	sweepD = []int{8, 16, 32, 48, 64}
)

// panel is one plot of a figure: its table, and the grid behind it — a
// row per outer value, and within the row the arms timed over one load
// of X per (outer, inner) point. byD makes the rows run over d and the
// columns over n; otherwise it is the other way round.
type panel struct {
	title        string
	header       []string
	note         string
	byD          bool
	outer, inner []int
	arms         []arm
}

// sweep measures a figure's panels.
func sweep(cfg Config, id string, panels ...panel) ([]*Table, error) {
	var out []*Table
	for _, p := range panels {
		t := &Table{ID: id, Title: p.title, Header: p.header, Note: p.note}
		for _, o := range p.outer {
			var row []Timing
			var label any = o
			for _, i := range p.inner {
				nk, dims := o, i
				if p.byD {
					nk, dims = i, o
				}
				n := cfg.rows(nk)
				ts, err := measure(cfg, dataset{n: n, dims: dims}, p.arms...)
				if err != nil {
					return nil, err
				}
				row = append(row, ts...)
				if !p.byD {
					label = sizeLabel(nk, n)
				}
			}
			t.add(label, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// runFigure1 reproduces Figure 1: SQL vs aggregate UDF as n grows, at
// d ∈ {8, 16, 32, 64}, triangular matrix.
func runFigure1(cfg Config) ([]*Table, error) {
	return sweep(cfg, "f1", panel{
		title:  "SQL vs aggregate UDF varying n, triangular matrix (secs)",
		header: []string{"n x1000(scaled)", "SQL d=8", "UDF d=8", "SQL d=16", "UDF d=16", "SQL d=32", "UDF d=32", "SQL d=64", "UDF d=64"},
		note:   "the paper's crossover: SQL competitive (even ahead) at low d, UDF clearly ahead at d=64; SQL non-linear at small n from statement parse overhead.",
		outer:  sweepN, inner: []int{8, 16, 32, 64}, arms: []arm{sqlArm(core.Triangular), udfArm(core.Triangular)},
	})
}

// runFigure2 reproduces Figure 2: SQL vs aggregate UDF as d grows, for
// n ∈ {100k, 200k, 800k, 1600k}.
func runFigure2(cfg Config) ([]*Table, error) {
	return sweep(cfg, "f2", panel{
		title:  "SQL vs aggregate UDF varying d, triangular matrix (secs)",
		header: []string{"d", "SQL n=100k", "UDF n=100k", "SQL n=200k", "UDF n=200k", "SQL n=800k", "UDF n=800k", "SQL n=1600k", "UDF n=1600k"},
		note:   "SQL grows quadratically in d (the 1+d+d² interpreted terms); the UDF is near-linear, dominated by the O(d·n) scan I/O.",
		byD:    true, outer: sweepD, inner: []int{100, 200, 800, 1600}, arms: []arm{sqlArm(core.Triangular), udfArm(core.Triangular)},
	})
}

// runFigure3 reproduces Figure 3: parameter passing style — string vs
// list — varying n at d=8 (left plot) and varying d at n=1600k (right
// plot).
func runFigure3(cfg Config) ([]*Table, error) {
	arms := []arm{stringArm(core.Triangular), udfArm(core.Triangular)}
	return sweep(cfg, "f3", panel{
		title:  "Parameter passing varying n at d=8 (secs)",
		header: []string{"n x1000(scaled)", "string", "list"},
		outer:  sweepN, inner: []int{8}, arms: arms,
	}, panel{
		title:  "Parameter passing varying d at n=1600k-scaled (secs)",
		header: []string{"d", "string", "list"},
		note:   "the string style pays the per-row number→string→number conversion; the gap widens with d (the paper's counter-intuitive finding that conversion beats the d² arithmetic as the dominant cost).",
		byD:    true, outer: sweepD, inner: []int{1600}, arms: arms,
	})
}

// runFigure4 reproduces Figure 4: matrix-type optimization — diagonal
// vs triangular vs full — varying n at d=64 and varying d at n=1600k.
func runFigure4(cfg Config) ([]*Table, error) {
	return sweep(cfg, "f4", panel{
		title:  "Matrix optimization varying n at d=64 (secs)",
		header: []string{"n x1000(scaled)", "diag", "triang", "full"},
		outer:  sweepN, inner: []int{64}, arms: matrixArms,
	}, panel{
		title:  "Matrix optimization varying d at n=1600k-scaled (secs)",
		header: []string{"d", "diag", "triang", "full"},
		note:   "d operations (diag) vs d(d+1)/2 (triang) vs d² (full) per row; the gap is marginal at low d and grows at d=64 — but I/O keeps all three closer than operation counts suggest.",
		byD:    true, outer: sweepD, inner: []int{1600}, arms: matrixArms,
	})
}

// runFigure5 reproduces Figure 5: aggregate UDF time complexity in n
// (left: d ∈ {32, 64} × three matrix types) and in d (right:
// n ∈ {800k, 1600k} × three matrix types) — all curves linear.
func runFigure5(cfg Config) ([]*Table, error) {
	return sweep(cfg, "f5", panel{
		title:  "Aggregate UDF time varying n (secs)",
		header: []string{"n x1000(scaled)", "diag d=32", "triang d=32", "full d=32", "diag d=64", "triang d=64", "full d=64"},
		outer:  sweepN, inner: []int{32, 64}, arms: matrixArms,
	}, panel{
		title:  "Aggregate UDF time varying d (secs)",
		header: []string{"d", "diag n=800k", "triang n=800k", "full n=800k", "diag n=1600k", "triang n=1600k", "full n=1600k"},
		note:   "linear growth in both n and d confirms the UDF is I/O-bound: up to d² in-memory operations ride along with the scan.",
		byD:    true, outer: sweepD, inner: []int{800, 1600}, arms: matrixArms,
	})
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
			ts, err := measure(cfg, dataset{n: n, dims: dims},
				groupByArm(dims, k, sqlgen.StringStyle), groupByArm(dims, k, sqlgen.ListStyle))
			if err != nil {
				return nil, err
			}
			t.add(sizeLabel(nk, n), k, ts)
		}
	}
	return []*Table{t}, nil
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
		var row []Timing
		for _, p := range []int{1, 4, 20} {
			pc := cfg
			pc.Partitions = p
			ts, err := measure(pc, dataset{n: n, dims: dims}, udfArm(core.Triangular))
			if err != nil {
				return nil, err
			}
			row = append(row, ts...)
		}
		t.add(sizeLabel(nk, n), row)
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
		perCell, stmts := perCellArm(dims)
		ts, err := measure(cfg, dataset{n: n, dims: dims}, sqlArm(core.Triangular), perCell)
		if err != nil {
			return nil, err
		}
		t.add(dims, ts, stmts)
	}
	return []*Table{t}, nil
}
