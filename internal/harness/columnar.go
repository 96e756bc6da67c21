package harness

import (
	"fmt"
	"math"

	statsudf "repro"
	"repro/internal/core"
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
	const scanSQL = "SELECT X1 + X2 FROM X WHERE X3 > 0"
	// Separate directories: the two engines must not share a row log
	// (or segments).
	cfg.Dir = ""
	for _, nk := range []int{200, 400, 800} {
		n := cfg.rows(nk)
		var builds, scans [2]Timing
		var sums [2]*core.NLQ
		for mode, columnar := range []bool{false, true} {
			err := withDataset(cfg, dataset{n: n, dims: dims, columnar: columnar}, func(e *env) error {
				// One untimed build first so the columnar engine's lazy
				// segment materialization is not billed to the measurement:
				// both modes then time cold *summary* scans over settled
				// storage.
				if err := cachedBuild.run(e); err != nil {
					return err
				}
				ts, err := e.time(coldBuild, arm{"filter scan", func(e *env) error {
					_, err := e.db.Exec(scanSQL)
					return err
				}})
				if err != nil {
					return err
				}
				builds[mode], scans[mode] = ts[0], ts[1]
				if sums[mode], err = e.cachedSummary(); err != nil {
					return err
				}
				if columnar {
					return checkFallbackShape(e.db, n)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if err := nlqBitsIdentical(sums[0], sums[1]); err != nil {
			return nil, fmt.Errorf("a8: n=%d summaries differ across modes: %w", n, err)
		}
		if err := linRegBitsIdentical(sums[0], sums[1]); err != nil {
			return nil, fmt.Errorf("a8: n=%d coefficients differ across modes: %w", n, err)
		}
		out.add(nk, builds[0], builds[1], bestOf(builds), scans[0], scans[1], bestOf(scans))
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

// bestOf reports how many times faster the second arm ran, comparing
// the fastest repetition of each (best-of-N): scheduler and page-cache
// noise only ever slows a run down, so the minimum is the stable
// estimate of each path's actual cost.
func bestOf(arms [2]Timing) Cell {
	return ratio("%.1fx", arms[0].Min().Seconds(), arms[1].Min().Seconds())
}
