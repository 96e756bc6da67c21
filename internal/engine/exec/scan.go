package exec

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/engine/storage"
)

// sources names the columns a scan's unboxed sources read: block
// columns, the partition's sealed chunks and the rest of its rows as
// blocks; float columns, its rows decoded to floats. A scan with
// neither boxes every row.
type sources struct{ block, floats []int }

// scanPartitions is the engine's one partition-scan loop: every SELECT
// shape and the summary rebuild run through it. It fans the partitions
// of t out over scanWidth goroutines, the caller among them
// (RunParallel: first failure cancels the siblings, panics are
// contained per partition), opens one worker per partition (phases 1-2
// of the aggregate protocol; merge and finalize are the caller's, after
// the workers join), feeds it blocks when the plan supplied block
// columns, else rows — decoded to floats when the plan supplied float
// columns, boxed otherwise — and records the scan[pN] spans, their
// source, per-partition rows and the scan totals in st — also when the
// scan fails part-way, so a failed statement still reports how far it
// got.
//
// marks, when set, resume every partition after its mark and are each
// advanced to where its partition's scan ended.
func scanPartitions(ctx context.Context, t *storage.Table, workers int, src sources, marks []storage.Mark, st *Stats, open func(p int) (*selectWorker, error)) error {
	nparts := t.Partitions()
	if marks != nil && (src.floats == nil || len(marks) != nparts) {
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

// scanPartition picks partition p's source: "block", "float" or "row".
func scanPartition(ctx context.Context, t *storage.Table, p int, src sources, from storage.Mark, w *selectWorker) (source string, ps storage.ScanStats, err error) {
	switch {
	case src.block != nil:
		ps, err = t.ScanPartitionBlocksFrom(ctx, p, from, src.block, w.block)
		return "block", ps, err
	case src.floats != nil:
		ps, err = t.ScanPartitionFloats(ctx, p, from, src.floats, w.floatRow, w.row)
		return "float", ps, err
	}
	ps, err = t.ScanPartitionStats(ctx, p, w.row)
	return "row", ps, err
}
