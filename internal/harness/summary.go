package harness

import (
	"fmt"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/synth"
)

// runSummaryCache (a5) measures what the summary catalog buys on the
// paper's hottest path — rebuilding the model suite (correlation + PCA +
// linear regression) from n, L, Q:
//
//   - cold:        the entry is invalidated first, so the build pays
//     one parallel scan (the path every model paid before the catalog);
//   - warm:        the entry covers the table, so the build is pure
//     O(d²) model math with zero partition scans;
//   - incremental: 1% more rows are appended through Table.Insert, then
//     the build runs warm again: it reads those rows and nothing else.
//
// The scan counts are asserted via ScannedRows, and the caught-up
// summary is checked against a from-scratch rescan bit for bit.
func runSummaryCache(cfg Config) ([]*Table, error) {
	const dims = 16
	out := &Table{
		ID:    "a5",
		Title: fmt.Sprintf("Ablation: incremental summary cache, model suite build at d=%d (secs)", dims),
		Header: []string{"n x 1000", "cold (scan+build)", "warm (cache+build)", "incr (+1% rows, cache+build)",
			"speedup cold/warm"},
		Note: "warm builds perform zero partition scans and incremental builds read only the appended rows " +
			"(asserted via ScannedRows); the caught-up n,L,Q is verified bit for bit against a rescan",
	}
	for _, nk := range []int{200, 400, 800} {
		n := cfg.rows(nk)
		err := withDataset(cfg, dataset{n: n, dims: dims}, func(e *env) error {
			tab, err := e.db.Engine().Table("X")
			if err != nil {
				return err
			}
			// scans times cached builds that must read want rows in all.
			scans := func(what string, want int64) ([]Timing, error) {
				tab.ResetScannedRows()
				ts, err := e.time(cachedBuild)
				if err == nil && tab.ScannedRows() != want {
					err = fmt.Errorf("a5: %s builds scanned %d rows, want %d", what, tab.ScannedRows(), want)
				}
				return ts, err
			}

			cold, err := e.time(coldBuild)
			if err != nil {
				return err
			}
			// Warm: the last cold run installed the entry.
			warm, err := scans("warm", 0)
			if err != nil {
				return err
			}
			// Append 1% more rows through the insert path, then build warm
			// again: the first build reads the appended rows.
			extra := n/100 + 1
			if err := appendRows(e.db, cfg, n, extra, dims); err != nil {
				return err
			}
			incr, err := scans("incremental", int64(extra))
			if err != nil {
				return err
			}

			// Verify the caught-up summary against a from-scratch rescan.
			s, err := e.cachedSummary()
			if err != nil {
				return err
			}
			e.db.Engine().InvalidateSummaries("X")
			ref, err := e.cachedSummary()
			if err != nil {
				return err
			}
			if s.Pack() != ref.Pack() {
				return fmt.Errorf("a5: caught-up summary differs from a rescan:\n%s\n%s", s.Pack(), ref.Pack())
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
// entry reads at most the rows appended since its last read, a cold one
// pays one parallel scan and installs the result.
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
