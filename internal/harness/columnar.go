package harness

import (
	"fmt"
	"math"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/sqlgen"
)

// runColumnarScan (a8) measures the row-vs-columnar crossover: the
// same cold n,L,Q model-suite build (summaries invalidated before
// every repetition, so each pays a full scan) and the same vectorized
// filter+project scan, on two engines over identical data — one on
// the default row-interpreted path, one with Options.Columnar. The
// block path must be purely a performance lever: the merged summaries
// and the regression coefficients solved from them are asserted
// byte-for-byte identical across the two modes, and an ineligible
// expression shape is run under the flag to confirm the fallback
// still answers correctly.
func runColumnarScan(cfg Config) ([]*Table, error) {
	const dims = 16
	out := &Table{
		ID: "a8",
		Title: fmt.Sprintf("Ablation: row vs columnar scan path at d=%d (secs)",
			dims),
		Header: []string{"n x 1000", "row cold build", "columnar cold build", "build speedup",
			"row filter scan", "columnar filter scan", "scan speedup"},
		Note: "cold builds invalidate the summary cache each repetition and rescan; " +
			"the columnar engine serves them from column segments via block kernels. " +
			"Merged n,L,Q and linear-regression coefficients are asserted bit-identical across modes.",
	}
	cols := sqlgen.Dims(dims)
	scanSQL := fmt.Sprintf("SELECT %s + %s FROM X WHERE %s > 0", cols[0], cols[1], cols[2])
	for _, nk := range []int{200, 400, 800} {
		n := cfg.rows(nk)
		row := []string{itoa(nk)}
		var builds [2]Timing
		var scans [2]Timing
		var sums [2]*core.NLQ
		for mode, columnar := range []bool{false, true} {
			// Separate directories: the two engines must not share a
			// row log (or segments).
			mcfg := cfg
			mcfg.Dir = ""
			d, cleanup, err := newDBMode(mcfg, columnar)
			if err != nil {
				return nil, err
			}
			if err := loadX(d, cfg, n, dims); err != nil {
				cleanup()
				return nil, err
			}
			ctx, eng := cfg.ctx(), d.Engine()
			build := func() error {
				s, _, err := eng.SummaryNLQ(ctx, "X", cols, core.Triangular)
				if err != nil {
					return err
				}
				return buildAllModels(s)
			}
			// One untimed build first so the columnar engine's lazy
			// segment materialization is not billed to the measurement:
			// both modes then time cold *summary* scans over settled
			// storage.
			if err := build(); err != nil {
				cleanup()
				return nil, err
			}
			builds[mode], err = timeIt(cfg, func() error {
				eng.InvalidateSummaries("X")
				return build()
			})
			if err != nil {
				cleanup()
				return nil, err
			}
			sums[mode], _, err = eng.SummaryNLQ(ctx, "X", cols, core.Triangular)
			if err != nil {
				cleanup()
				return nil, err
			}
			scans[mode], err = timeIt(cfg, func() error {
				_, err := d.Exec(scanSQL)
				return err
			})
			if err != nil {
				cleanup()
				return nil, err
			}
			if columnar {
				if err := checkFallbackShape(d, n); err != nil {
					cleanup()
					return nil, err
				}
			}
			cleanup()
		}
		if err := nlqBitsIdentical(sums[0], sums[1]); err != nil {
			return nil, fmt.Errorf("a8: n=%d summaries differ across modes: %w", n, err)
		}
		if err := linRegBitsIdentical(sums[0], sums[1]); err != nil {
			return nil, fmt.Errorf("a8: n=%d coefficients differ across modes: %w", n, err)
		}
		row = append(row, secs(builds[0]), secs(builds[1]), ratio(builds[0], builds[1]),
			secs(scans[0]), secs(scans[1]), ratio(scans[0], scans[1]))
		out.Rows = append(out.Rows, row)
	}
	return []*Table{out}, nil
}

// checkFallbackShape runs an expression the vector compiler rejects
// (a function call) under the columnar flag and sanity-checks the
// row-path fallback produced the full result set.
func checkFallbackShape(d *statsudf.DB, n int) error {
	res, err := d.Exec("SELECT power(X1, 2) FROM X")
	if err != nil {
		return fmt.Errorf("a8: fallback shape failed under -columnar: %w", err)
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

// ratio reports a/b — how many times faster the second arm ran. The
// fastest repetition of each arm is compared (best-of-N): scheduler
// and page-cache noise only ever slows a run down, so the minimum is
// the stable estimate of each path's actual cost.
func ratio(a, b Timing) string {
	if s := b.Min().Seconds(); s > 0 {
		return fmt.Sprintf("%.1fx", a.Min().Seconds()/s)
	}
	return "-"
}
