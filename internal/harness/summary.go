package harness

import (
	"fmt"
	"math"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/sqltypes"
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
	for _, nk := range []int{200, 400, 800} {
		n := cfg.rows(nk)
		err := withDataset(cfg, dataset{n: n, dims: dims}, func(e *env) error {
			tab, err := e.db.Engine().Table("X")
			if err != nil {
				return err
			}
			// zeroScans times a build that must be served from the cache.
			zeroScans := func(what string) ([]Timing, error) {
				tab.ResetScannedRows()
				ts, err := e.time(cachedBuild)
				if err == nil && tab.ScannedRows() != 0 {
					err = fmt.Errorf("a5: %s build scanned %d rows, want 0", what, tab.ScannedRows())
				}
				return ts, err
			}

			cold, err := e.time(coldBuild)
			if err != nil {
				return err
			}
			// Warm: the last cold run installed the entry.
			warm, err := zeroScans("warm")
			if err != nil {
				return err
			}
			// Append 1% more rows through the insert path, then build warm
			// again: the appends were delta-merged at write time.
			if err := appendRows(e.db, cfg, n, n/100+1, dims); err != nil {
				return err
			}
			incr, err := zeroScans("incremental")
			if err != nil {
				return err
			}

			// Verify the incrementally maintained summary against a
			// from-scratch rescan.
			s, err := e.cachedSummary()
			if err != nil {
				return err
			}
			e.db.Engine().InvalidateSummaries("X")
			ref, err := e.cachedSummary()
			if err != nil {
				return err
			}
			if err := nlqClose(s, ref, 1e-9); err != nil {
				return fmt.Errorf("a5: incremental summary diverged from rescan: %w", err)
			}
			out.add(nk, cold, warm, incr, ratio("%.0fx", cold[0].Seconds(), warm[0].Seconds()))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{out}, nil
}

// cachedSummary is n, L, Q from the engine's summary catalog: a warm
// entry answers with zero partition scans, a cold one pays one parallel
// scan and installs the result.
func (e *env) cachedSummary() (*core.NLQ, error) {
	s, _, err := e.db.Engine().SummaryNLQ(e.cfg.ctx(), "X", e.cols, core.Triangular)
	return s, err
}

// cachedBuild builds the model suite on the catalog's summaries;
// coldBuild invalidates them first, so every repetition pays the
// rebuild scan. The a5 and a8 ablations time both.
var (
	cachedBuild = arm{"cache + build", func(e *env) error {
		s, err := e.cachedSummary()
		if err != nil {
			return err
		}
		return buildAllModels(s)
	}}
	coldBuild = arm{"scan + build", func(e *env) error {
		e.db.Engine().InvalidateSummaries("X")
		return cachedBuild.run(e)
	}}
)

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
