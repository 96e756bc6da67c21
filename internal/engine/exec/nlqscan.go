package exec

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// ComputeTableNLQ computes per-partition n/L/Q partials over the given
// column ordinals of t, under the aggregate protocol's parallel
// discipline: phases 1-2 accumulate one partial per partition scan,
// the caller merges the partials (phase 3) and derives models from the
// merged summary (phase 4). Rows with a NULL (or non-numeric) value in
// any selected column are skipped, matching the aggregate UDF's
// treatment of incomplete points; seen reports the total rows scanned
// including skipped ones — the count the summary cache stamps entries
// with, since it must match the table's row count exactly.
//
// Eligible scans (all selected columns numeric by schema type) read the
// row log through its float decode, which hands Update each row's
// values unboxed, and with columnar set take the block source and run
// UpdateBlock over column segments. The per-slot accumulation order is
// identical in every source, so the partials are byte-for-byte the same
// in both modes — including seen: every source counts every delivered
// row, NULL-masked block rows and declined float rows like the row
// source's skipped ones. Ineligible scans (counted as one fallback under
// columnar) box every row; stale-segment partitions take the float
// decode.
func ComputeTableNLQ(ctx context.Context, t *storage.Table, cols []int, mt core.MatrixType, workers int, columnar bool) (partials []*core.NLQ, seen int64, err error) {
	var src sources
	if nlqBlocksEligible(t, cols) {
		if columnar {
			src.block = cols
		}
		if distinct(cols) { // a float row holds each column once
			src.floats = cols
		}
	} else if columnar {
		obs.ColumnarFallbacks.Inc()
	}
	partials = make([]*core.NLQ, t.Partitions())
	var st Stats
	err = scanPartitions(ctx, t, workers, src, &st, func(p int) (scanWorker, error) {
		s, err := core.NewNLQ(len(cols), mt)
		if err != nil {
			return nil, err
		}
		partials[p] = s
		return &nlqWorker{cols: cols, s: s, x: make([]float64, len(cols))}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return partials, st.RowsScanned, nil
}

// nlqBlocksEligible reports whether the summary scan over cols can use
// block kernels or the float decode: every selected column must be
// numeric *by schema type*. The row path's Value.Float() succeeds on
// numeric-looking VARCHAR values, so a VARCHAR column would contribute
// operands on the row path that segment blocks don't carry — such scans
// stay row-wise.
func nlqBlocksEligible(t *storage.Table, cols []int) bool {
	schema := t.Schema()
	for _, c := range cols {
		if c < 0 || c >= schema.Len() || !storage.NumericColumn(schema.Columns[c]) {
			return false
		}
	}
	return true
}

func distinct(cols []int) bool {
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			return false
		}
	}
	return true
}

// nlqWorker is the n/L/Q scanWorker: it folds one partition into s.
type nlqWorker struct {
	cols     []int
	s        *core.NLQ
	x        []float64
	rowValid []bool
}

func (w *nlqWorker) row(r sqltypes.Row) error {
	for i, c := range w.cols {
		f, ok := r[c].Float()
		if !ok {
			return nil
		}
		w.x[i] = f
	}
	return w.s.Update(w.x)
}

// floats folds one float row: the scan's float columns are w.cols.
func (w *nlqWorker) floats(x []float64) error { return w.s.Update(x) }

func (w *nlqWorker) block(b *storage.Block) error {
	// AND the validity lanes of the columns with a NULL in this block,
	// column-major: each pass is a sequential sweep instead of a strided
	// gather per row. With none, any column's lane (the scan has at
	// least one) is the all-true row mask.
	valid := b.Valid[0]
	w.rowValid = w.rowValid[:0]
	for s, v := range b.Valid {
		if b.NullFree(s) {
			continue
		}
		if len(w.rowValid) == 0 {
			w.rowValid = append(w.rowValid, v...)
			valid = w.rowValid
			continue
		}
		for r, ok := range v {
			if !ok {
				w.rowValid[r] = false
			}
		}
	}
	return w.s.UpdateBlock(b.Cols, valid)
}

func (w *nlqWorker) flush() error { return nil }

func (w *nlqWorker) release() {}
