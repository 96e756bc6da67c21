package exec

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/engine/storage"
)

// sources is what a scan's unboxed sources read: cols, as blocks from
// a partition's sealed chunks when block is set, and decoded to float
// rows from its other rows when floats is. Every row neither takes is
// boxed.
type sources struct {
	cols          []int
	block, floats bool
}

// scanPartitions is the engine's one partition-scan loop: every SELECT
// shape and the summary rebuild run through it. It fans the partitions
// of t out over scanWidth goroutines, the caller among them
// (RunParallel: first failure cancels the siblings, panics are
// contained per partition), opens one worker per partition (phases 1-2
// of the aggregate protocol; merge and finalize are the caller's, after
// the workers join), feeds it the partition's rows from the sources the
// plan offered, and records the scan[pN] spans, their source,
// per-partition rows and the scan totals in st — also when the scan
// fails part-way, so a failed statement still reports how far it got.
//
// marks, when set, resume every partition after its mark and are each
// advanced to where its partition's scan ended.
func scanPartitions(ctx context.Context, t *storage.Table, workers int, src sources, marks []storage.Mark, st *Stats, open func(p int) (*selectWorker, error)) error {
	nparts := t.Partitions()
	if marks != nil && (!src.floats || len(marks) != nparts) {
		return fmt.Errorf("exec: a resumed scan of table %q needs float rows and one mark per partition", t.Name())
	}
	rows := t.NumRows()
	for _, m := range marks {
		rows -= m.Rows
	}
	st.Partitions = nparts
	st.Workers = scanWidth(nparts, workers, rows)
	st.PartitionRows = make([]int64, nparts)
	scan := st.ensureRoot().child("scan")
	partSpans := make([]*Span, nparts)
	err := RunParallel(ctx, st.Workers, nparts, func(ctx context.Context, p int) error {
		span := newSpan("scan[p" + strconv.Itoa(p) + "]")
		partSpans[p] = span
		defer span.finish()
		w, err := open(p)
		if err != nil {
			return err
		}
		defer w.release()
		var from storage.Mark
		if marks != nil {
			from = marks[p]
		}
		var ps storage.ScanStats
		span.Source, ps, err = scanPartition(ctx, t, p, src, from, w)
		if err == nil {
			err = w.flush()
		}
		if err == nil && marks != nil {
			marks[p] = ps.End
		}
		st.PartitionRows[p] = ps.Rows
		span.Rows, span.Bytes = ps.Rows, ps.Bytes
		return err
	})
	st.Scan = scan.finish()
	// The workers have joined, so the per-span numbers are stable and the
	// Stats fields stay plain. Partitions never started before a
	// cancellation have no span.
	for _, ps := range partSpans {
		if ps != nil {
			scan.Children = append(scan.Children, ps)
			st.RowsScanned += ps.Rows
			st.BytesRead += ps.Bytes
		}
	}
	scan.sortChildren()
	scan.Rows, scan.Bytes = st.RowsScanned, st.BytesRead
	return err
}

// scanWidth is how many workers, the caller included, a scan of rows
// rows over nparts partitions runs: one per storage.ChunkRows rows to
// read, at most one per partition and at most workers when workers > 0,
// and at least one. A table of nparts chunks or more gets the paper's
// thread per AMP; a point lookup or a catch-up over a few appended rows
// runs on the calling goroutine alone.
func scanWidth(nparts, workers int, rows int64) int {
	width := int64(nparts)
	if workers > 0 {
		width = min(width, int64(workers))
	}
	chunks := (rows + storage.ChunkRows - 1) / storage.ChunkRows
	return int(max(1, min(width, chunks)))
}

// scanPartition reads partition p after from into w and names the best
// source the plan offered: "block", "float" or "row".
func scanPartition(ctx context.Context, t *storage.Table, p int, src sources, from storage.Mark, w *selectWorker) (string, storage.ScanStats, error) {
	r, source := storage.Read{From: from, Cols: src.cols, Rows: w.row}, "row"
	if src.floats {
		r.Floats, source = w.floatRow, "float"
	}
	if src.block {
		r.Blocks, source = w.block, "block"
	}
	ps, err := t.ScanPartitionRead(ctx, p, r)
	return source, ps, err
}
