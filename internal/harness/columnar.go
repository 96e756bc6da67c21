package harness

import (
	"fmt"
	"math"
	"sync/atomic"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// runColumnarScan (a8) measures what the block source buys on disk: a
// cold n,L,Q model-suite build (every repetition pays a full scan) and
// a vectorized filter+project scan streamed to a counting sink over one
// dataset, once with the executor's block source declined, decoding
// the sealed chunks to rows, and once as the engine runs them, as
// blocks of the chunks' columns. The two build arms run
// the same summary scan (what a summary cache rebuild runs) and the two
// filter arms the same statement, so only the source differs. The
// source must be purely a performance lever: the summaries and the
// regression coefficients solved from them are asserted byte-for-byte
// identical across the two, and an ineligible expression shape is run
// to confirm the fallback still answers correctly.
func runColumnarScan(cfg Config) ([]*Table, error) {
	const dims = 16
	out := &Table{
		ID: "a8",
		Title: fmt.Sprintf("Ablation: chunks decoded to rows vs read as column blocks at d=%d (secs)",
			dims),
		Header: []string{"n x 1000", "row cold build", "block cold build", "build speedup",
			"row filter scan", "block filter scan", "scan speedup"},
		Note: "one on-disk dataset per n, its rows sealed in column chunks as they load. Row arms decline the executor's block source " +
			"and decode the chunks to rows; block arms are the engine's default, the chunks' columns via block kernels. " +
			"Both cold builds run the summary scan a cache rebuild runs, then the model suite. " +
			"Both filter scans stream their rows into a counting sink; the counts are asserted equal. " +
			"n,L,Q and linear-regression coefficients are asserted bit-identical across the sources.",
	}
	const scanSQL = "SELECT X1 + X2 FROM X WHERE X3 > 0"
	for _, nk := range []int{200, 400, 800} {
		n := cfg.rows(nk)
		var builds, scans [2]Timing
		var sums [2]*core.NLQ
		err := withDataset(cfg, dataset{n: n, dims: dims}, func(e *env) error {
			// Seal the short tails too: a tail is read as rows by both
			// arms, so at a small scale nothing would tell them apart.
			x, err := e.db.Engine().Table("X")
			if err == nil {
				err = x.EnsureSegments()
			}
			if err != nil {
				return err
			}
			scan, err := e.declineBlocks(scanSQL)
			if err != nil {
				return err
			}
			build := func(blocks bool) func(*env) error {
				return func(e *env) error {
					s, err := e.summaryScan(blocks)
					if err != nil {
						return err
					}
					return buildAllModels(s)
				}
			}
			// The filter arms stream their rows into a counting sink, so
			// they time the scan, not the building of a result.
			var kept [2]atomic.Int64
			count := func(i int) exec.RowSink {
				kept[i].Store(0)
				return func(sqltypes.Row) error { kept[i].Add(1); return nil }
			}
			ts, err := e.time(arm{"row scan + build", build(false)}, arm{"row filter scan", func(e *env) error {
				_, err := scan.Run(e.cfg.ctx(), nil, count(0))
				return err
			}}, arm{"block scan + build", build(true)}, arm{"block filter scan", func(e *env) error {
				_, err := e.db.Engine().QueryContext(e.cfg.ctx(), scanSQL, count(1))
				return err
			}})
			if err != nil {
				return err
			}
			if rows, blocks := kept[0].Load(), kept[1].Load(); rows != blocks || rows == 0 {
				return fmt.Errorf("a8: n=%d filter scan streamed %d rows from decoded rows, %d from blocks", n, rows, blocks)
			}
			builds, scans = [2]Timing{ts[0], ts[2]}, [2]Timing{ts[1], ts[3]}
			for i, blocks := range []bool{false, true} {
				if sums[i], err = e.summaryScan(blocks); err != nil {
					return err
				}
			}
			return checkFallbackShape(e.db, n)
		})
		if err != nil {
			return nil, err
		}
		if err := nlqBitsIdentical(sums[0], sums[1]); err != nil {
			return nil, fmt.Errorf("a8: n=%d summaries differ across sources: %w", n, err)
		}
		if err := linRegBitsIdentical(sums[0], sums[1]); err != nil {
			return nil, fmt.Errorf("a8: n=%d coefficients differ across sources: %w", n, err)
		}
		out.add(nk, builds[0], builds[1], bestOf(builds), scans[0], scans[1], bestOf(scans))
	}
	return []*Table{out}, nil
}

// summaryScan runs the summary scan of the dataset's columns — the one
// a summary cache rebuild runs — with the executor's block source
// offered or declined, and merges its partitions in order.
func (e *env) summaryScan(blocks bool) (*core.NLQ, error) {
	x, err := e.db.Engine().Table("X")
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(e.cols))
	for i, c := range e.cols {
		idx[i] = x.Schema().Index(c)
	}
	scan, err := exec.PrepareTableNLQ(x, idx, core.Triangular, 0, blocks)
	if err != nil {
		return nil, err
	}
	parts := make([]*core.NLQ, x.Partitions())
	if _, err := scan.Read(e.cfg.ctx(), nil, parts); err != nil {
		return nil, err
	}
	sum, err := core.NewNLQ(len(idx), core.Triangular)
	if err != nil {
		return nil, err
	}
	for _, q := range parts {
		if q != nil {
			if err := sum.Merge(q); err != nil {
				return nil, err
			}
		}
	}
	return sum, nil
}

// declineBlocks plans the SELECT sql over the dataset with the
// executor's block source declined (exec.Env.Columnar off): the row
// arm, decoding the sealed chunks to rows.
func (e *env) declineBlocks(sql string) (*exec.PreparedSelect, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	eng := e.db.Engine()
	return exec.PrepareSelect(stmt.(*sqlparser.Select), &exec.Env{Catalog: eng, Funcs: eng.Scalars(), Aggs: eng.Aggregates()})
}

// checkFallbackShape runs an expression the vector compiler rejects
// (a function call) on disk, where the planner offers blocks, and
// sanity-checks the row-path fallback produced the full result set.
func checkFallbackShape(d *statsudf.DB, n int) error {
	res, err := d.Exec("SELECT power(X1, 2) FROM X")
	if err != nil {
		return fmt.Errorf("a8: fallback shape failed: %w", err)
	}
	if len(res.Rows) != n {
		return fmt.Errorf("a8: fallback shape returned %d rows, want %d", len(res.Rows), n)
	}
	return nil
}

// nlqBitsIdentical requires two summaries to agree to the last bit —
// the columnar kernels accumulate in the row path's exact order, so
// anything short of equality is a defect, not rounding.
func nlqBitsIdentical(a, b *core.NLQ) error {
	if a.D != b.D || math.Float64bits(a.N) != math.Float64bits(b.N) {
		return fmt.Errorf("n/d: %v/%d vs %v/%d", a.N, a.D, b.N, b.D)
	}
	for i := range a.L {
		if math.Float64bits(a.L[i]) != math.Float64bits(b.L[i]) {
			return fmt.Errorf("L[%d]: %v vs %v", i, a.L[i], b.L[i])
		}
		if math.Float64bits(a.Min[i]) != math.Float64bits(b.Min[i]) ||
			math.Float64bits(a.Max[i]) != math.Float64bits(b.Max[i]) {
			return fmt.Errorf("min/max[%d] differ", i)
		}
	}
	for i := range a.Q {
		if math.Float64bits(a.Q[i]) != math.Float64bits(b.Q[i]) {
			return fmt.Errorf("Q[%d]: %v vs %v", i, a.Q[i], b.Q[i])
		}
	}
	return nil
}

// linRegBitsIdentical solves the normal equations from both summaries
// and requires bit-identical coefficients.
func linRegBitsIdentical(a, b *core.NLQ) error {
	ma, err := core.BuildLinReg(a)
	if err != nil {
		return err
	}
	mb, err := core.BuildLinReg(b)
	if err != nil {
		return err
	}
	for i := range ma.Beta {
		if math.Float64bits(ma.Beta[i]) != math.Float64bits(mb.Beta[i]) {
			return fmt.Errorf("beta[%d]: %v vs %v", i, ma.Beta[i], mb.Beta[i])
		}
	}
	return nil
}

// bestOf reports how many times faster the second arm ran, comparing
// the fastest repetition of each (best-of-N): scheduler and page-cache
// noise only ever slows a run down, so the minimum is the stable
// estimate of each path's actual cost.
func bestOf(arms [2]Timing) Cell {
	return ratio("%.1fx", arms[0].Min().Seconds(), arms[1].Min().Seconds())
}
