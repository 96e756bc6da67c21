package harness

import (
	"fmt"
	"math"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

// runSummaryCache (a5) measures what the incremental summary catalog
// buys on the paper's hottest path — rebuilding the model suite
// (correlation + PCA + linear regression) from n, L, Q:
//
//   - cold:        the entry is invalidated first, so the build pays
//     one parallel scan (the legacy path every model paid before);
//   - warm:        the entry is fresh, so the build is pure O(d²)
//     model math with zero partition scans;
//   - incremental: 1% more rows are appended through Table.Insert
//     (delta-merged into the cache at write time), then the build runs
//     warm again — still zero scans.
//
// The zero-scan claims are asserted via ScannedRows, and the
// incrementally maintained summary is checked against a from-scratch
// rescan within 1e-9.
func runSummaryCache(cfg Config) ([]*Table, error) {
	const dims = 16
	out := &Table{
		ID:    "a5",
		Title: fmt.Sprintf("Ablation: incremental summary cache, model suite build at d=%d (secs)", dims),
		Header: []string{"n x 1000", "cold (scan+build)", "warm (cache+build)", "incr (+1% rows, cache+build)",
			"speedup cold/warm"},
		Note: "warm and incremental builds perform zero partition scans (asserted via ScannedRows); " +
			"appends are folded into the cached n,L,Q at insert time and verified against a rescan to 1e-9",
	}
	cols := sqlgen.Dims(dims)
	for _, nk := range []int{200, 400, 800} {
		d, cleanup, err := newDB(cfg)
		if err != nil {
			return nil, err
		}
		n := cfg.rows(nk)
		if err := loadX(d, cfg, n, dims); err != nil {
			cleanup()
			return nil, err
		}
		ctx, eng := cfg.ctx(), d.Engine()
		tab, err := eng.Table("X")
		if err != nil {
			cleanup()
			return nil, err
		}
		build := func() error {
			s, _, err := eng.SummaryNLQ(ctx, "X", cols, core.Triangular)
			if err != nil {
				return err
			}
			return buildAllModels(s)
		}

		// Cold: every repetition invalidates first, so each one pays
		// the rebuild scan.
		cold, err := timeIt(cfg, func() error {
			eng.InvalidateSummaries("X")
			return build()
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		// Warm: the last cold run installed the entry; assert no scans.
		tab.ResetScannedRows()
		warm, err := timeIt(cfg, build)
		if err != nil {
			cleanup()
			return nil, err
		}
		if got := tab.ScannedRows(); got != 0 {
			cleanup()
			return nil, fmt.Errorf("a5: warm build scanned %d rows, want 0", got)
		}

		// Append 1% more rows through the insert path, then build warm
		// again: the appends were delta-merged at write time.
		if err := appendRows(d, cfg, n, n/100+1, dims); err != nil {
			cleanup()
			return nil, err
		}
		tab.ResetScannedRows()
		incr, err := timeIt(cfg, build)
		if err != nil {
			cleanup()
			return nil, err
		}
		if got := tab.ScannedRows(); got != 0 {
			cleanup()
			return nil, fmt.Errorf("a5: incremental build scanned %d rows, want 0", got)
		}

		// Verify the incrementally maintained summary against a
		// from-scratch rescan.
		s, _, err := eng.SummaryNLQ(ctx, "X", cols, core.Triangular)
		if err != nil {
			cleanup()
			return nil, err
		}
		eng.InvalidateSummaries("X")
		ref, _, err := eng.SummaryNLQ(ctx, "X", cols, core.Triangular)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := nlqClose(s, ref, 1e-9); err != nil {
			cleanup()
			return nil, fmt.Errorf("a5: incremental summary diverged from rescan: %w", err)
		}

		speedup := "-"
		if w := warm.Seconds(); w > 0 {
			speedup = fmt.Sprintf("%.0fx", cold.Seconds()/w)
		}
		out.Rows = append(out.Rows, []string{itoa(nk), secs(cold), secs(warm), secs(incr), speedup})
		cleanup()
	}
	return []*Table{out}, nil
}

// appendRows inserts extra synthetic rows (ids continuing after n)
// through the regular insert path in small batches.
func appendRows(d *statsudf.DB, cfg Config, n, extra, dims int) error {
	t, err := d.Engine().Table("X")
	if err != nil {
		return err
	}
	batch := make([]sqltypes.Row, 0, 256)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := t.Insert(batch...)
		batch = batch[:0]
		return err
	}
	err = synth.Stream(synth.Config{N: extra, D: dims, Seed: cfg.Seed + 1}, func(i int64, x []float64) error {
		row := make(sqltypes.Row, 1+dims)
		row[0] = sqltypes.NewBigInt(int64(n) + i)
		for a, v := range x {
			row[1+a] = sqltypes.NewDouble(v)
		}
		batch = append(batch, row)
		if len(batch) == cap(batch) {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// nlqClose compares two summaries within relative tolerance.
func nlqClose(a, b *core.NLQ, tol float64) error {
	if a.N != b.N {
		return fmt.Errorf("n: %g vs %g", a.N, b.N)
	}
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	for i := 0; i < a.D; i++ {
		if !close(a.L[i], b.L[i]) {
			return fmt.Errorf("L[%d]: %g vs %g", i, a.L[i], b.L[i])
		}
		for j := 0; j < a.D; j++ {
			if !close(a.QAt(i, j), b.QAt(i, j)) {
				return fmt.Errorf("Q[%d,%d]: %g vs %g", i, j, a.QAt(i, j), b.QAt(i, j))
			}
		}
	}
	return nil
}
