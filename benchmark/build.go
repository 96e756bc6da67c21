package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

// buildWorkload is build_udf (the aggregate UDF over the row log) or,
// with columnar set, build_columnar (the block path plus a vectorised
// filter projection). Both build the three models from each summary.
type buildWorkload struct {
	cfg      config
	columnar bool
	gen      synth.Config
	cols     []string
	oracle   *nlqOracle
	want     *core.NLQ // partials merged in one node's partition order
	sql      string    // SELECT nlq_list(32, 'triang', X1..X32) FROM X
	projSQL  string
}

func openDB(dir string, columnar bool) (*statsudf.DB, error) {
	// SlowQuery is raised so that no statement is logged as slow.
	return statsudf.Open(statsudf.Options{Dir: dir, Partitions: partitions, SlowQuery: time.Hour, Columnar: columnar})
}

func newBuildWorkload(cfg config, columnar bool) (*buildWorkload, error) {
	w := &buildWorkload{cfg: cfg, columnar: columnar, cols: statsudf.DimColumns(cfg.sz.dims)}
	w.gen = synth.Config{N: cfg.sz.buildRows, D: cfg.sz.dims, Seed: cfg.seed}
	if columnar {
		w.gen.N = cfg.sz.colRows
	}
	w.sql = sqlgen.NLQUDFQuery("X", w.cols, core.Triangular, sqlgen.ListStyle)
	w.projSQL = "SELECT X1 + X2 FROM X WHERE X3 > 0"
	var err error
	if w.oracle, err = newNLQOracle(w.gen); err != nil {
		return nil, err
	}
	w.want, err = w.oracle.merged([][]int{{0, 1, 2, 3}})
	return w, err
}

func (w *buildWorkload) clients() int   { return 1 }
func (w *buildWorkload) warmupOps() int { return w.cfg.sz.warmupOps }

func (w *buildWorkload) setUp(dir string) (instance, error) {
	d, err := openDB(dir, w.columnar)
	if err != nil {
		return nil, err
	}
	if err := d.Generate("X", w.gen); err != nil {
		return nil, err
	}
	return &buildInstance{w: w, db: d, dir: dir}, nil
}

type buildInstance struct {
	w   *buildWorkload
	db  *statsudf.DB
	dir string
}

func (b *buildInstance) close() error { return b.db.Close() }

func (b *buildInstance) stored() (int64, int64) {
	return tableBytes(b.db.Engine(), "X")
}

// tableBytes returns a table's bytes at rest (row log plus segments)
// and its user bytes, 8 per cell; zeros when there is no such table.
func tableBytes(eng *db.DB, name string) (disk, user int64) {
	t, err := eng.Table(name)
	if err != nil {
		return 0, 0
	}
	disk, _ = t.SizeBytes()
	for _, s := range t.Segments() {
		disk += s.Bytes
	}
	return disk, 8 * t.NumRows() * int64(t.Schema().Len())
}

// buildModels derives the three models the paper builds from one
// summary; X32 stands in as the regression's dependent variable.
func buildModels(s *core.NLQ) error {
	if _, err := statsudf.BuildCorrelationFrom(s); err != nil {
		return err
	}
	if _, err := statsudf.BuildLinRegFrom(s); err != nil {
		return err
	}
	_, err := statsudf.BuildPCAFrom(s, 4, statsudf.CorrelationBasis)
	return err
}

func discardRow(sqltypes.Row) error { return nil }

func (b *buildInstance) op(c *worker) (func() error, error) {
	w := b.w
	if !w.columnar {
		done := c.sc.begin("statsudf.Summary")
		s, err := b.db.Summary("X", w.cols, statsudf.SummaryOptions{Method: statsudf.ViaUDF, Matrix: statsudf.Triangular})
		done()
		if err != nil {
			return nil, err
		}
		done = c.sc.begin("core.models")
		err = buildModels(s)
		done()
		return func() error { return w.oracle.check(s, w.want) }, err
	}
	eng := b.db.Engine()
	done := c.sc.begin("db.SummaryNLQ")
	eng.InvalidateSummaries("X") // summary-cache cold: the table is re-read every time
	s, hit, err := eng.SummaryNLQ(bg, "X", w.cols, core.Triangular)
	done()
	if err != nil {
		return nil, err
	}
	done = c.sc.begin("core.models")
	err = buildModels(s)
	done()
	if err != nil {
		return nil, err
	}
	done = c.sc.begin("db.QueryStream")
	_, st, err := eng.QueryStreamContext(bg, w.projSQL, discardRow)
	done()
	if err != nil {
		return nil, err
	}
	return func() error {
		if hit {
			return fmt.Errorf("invalidated summary was served from the cache")
		}
		if st.RowsScanned != int64(w.gen.N) || st.RowsEmitted != w.oracle.posX3 {
			return fmt.Errorf("projection scanned %d and emitted %d rows, want %d and %d",
				st.RowsScanned, st.RowsEmitted, w.gen.N, w.oracle.posX3)
		}
		return w.oracle.check(s, w.want)
	}, nil
}

// scanWidth is how many partition scans run at once.
func scanWidth() int {
	if n := runtime.GOMAXPROCS(0); n < partitions {
		return n
	}
	return partitions
}

func (b *buildInstance) layers(lc *layerCtx) error {
	w := b.w
	eng := b.db.Engine()
	t, err := eng.Table("X")
	if err != nil {
		return err
	}
	if !w.columnar {
		if err := lc.statement(eng, w.sql, false); err != nil {
			return err
		}
		_, merge, finalize, err := lc.execStats("db.Exec", func() (*exec.Stats, error) {
			res, err := eng.Exec(w.sql)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		})
		if err != nil {
			return err
		}
		if err := lc.udfScan(eng, t, w.sql, w.gen.N, scanWidth()); err != nil {
			return err
		}
		_, _, unpack, models, err := lc.nlqAlgebra(w.oracle.parts)
		if err != nil {
			return err
		}
		lc.stage("exec.merge", merge)
		lc.stage("exec.finalize (packs)", finalize)
		lc.stage("core.unpack", unpack)
		lc.stage("core.models", models)
		return nil
	}

	if err := lc.statement(eng, w.projSQL, true); err != nil {
		return err
	}
	scan, _, _, err := lc.execStats("db.QueryStream", func() (*exec.Stats, error) {
		_, st, err := eng.QueryStreamContext(bg, w.projSQL, discardRow)
		return st, err
	})
	if err != nil {
		return err
	}
	cols := make([]int, len(w.cols))
	for i, c := range w.cols {
		cols[i] = t.Schema().Index(c)
	}
	scanNs, err := lc.blockScan(t, cols)
	if err != nil {
		return err
	}
	// One partition's blocks, copied out, feed the kernel and the vector
	// programs without the decoder in the way.
	var blocks [][][]float64
	if _, err := t.ScanPartitionBlocks(bg, 0, cols, func(b *storage.Block) error {
		cp := make([][]float64, len(b.Cols))
		for i, c := range b.Cols {
			cp[i] = append([]float64(nil), c[:b.Rows]...)
		}
		blocks = append(blocks, cp)
		return nil
	}); err != nil {
		return err
	}
	blockRows := 0
	valid := make([][]bool, len(blocks))
	for i, blk := range blocks {
		valid[i] = make([]bool, len(blk[0]))
		for r := range valid[i] {
			valid[i][r] = true
		}
		blockRows += len(blk[0])
	}
	var s *core.NLQ
	d, err := lc.benchPrep("core.NLQ.UpdateBlock", func() (err error) {
		s, err = core.NewNLQ(len(cols), core.Triangular)
		return err
	}, func() error {
		for i, blk := range blocks {
			if err := s.UpdateBlock(blk, valid[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	kernelNs := float64(d) / float64(blockRows)
	lc.m["core.updateblock_ns_per_row"] = kernelNs
	lc.m["core.updateblock_gflops"] = nlqFlops(len(cols)) / kernelNs
	if err := b.vectorPrograms(lc, t, blocks, blockRows); err != nil {
		return err
	}
	merge, _, _, models, err := lc.nlqAlgebra(w.oracle.parts)
	if err != nil {
		return err
	}
	lc.m["summary.rebuild_ms"] = ms(lc.liveP50("db.SummaryNLQ"))
	if d, err = lc.bench("db.SummaryNLQ (warm)", func() error {
		_, hit, err := eng.SummaryNLQ(bg, "X", w.cols, core.Triangular)
		if err == nil && !hit {
			err = fmt.Errorf("warm summary missed the cache")
		}
		return err
	}); err != nil {
		return err
	}
	lc.m["summary.hit_us"] = us(d)
	if err := b.incremental(lc); err != nil {
		return err
	}
	lc.stage("storage.blockscan", perRow(scanNs, w.gen.N, scanWidth()))
	lc.stage("core.updateblock", perRow(kernelNs, w.gen.N, scanWidth()))
	lc.stage("core.merge", time.Duration(partitions-1)*merge)
	lc.stage("core.models", models)
	lc.stage("exec.scan (projection)", scan)
	return b.ensureSegments(lc)
}

// vectorPrograms runs the projection's two vector programs (X3 > 0,
// then X1 + X2 under its mask) over the copied blocks; a lane is one
// row position taken through both.
func (b *buildInstance) vectorPrograms(lc *layerCtx, t *storage.Table, blocks [][][]float64, blockRows int) error {
	resolve := schemaResolver([]string{"X"}, []*sqltypes.Schema{t.Schema()})
	isDouble := func(ord int) bool { return t.Schema().Columns[ord].Type == sqltypes.TypeDouble }
	compile := func(text string) (*expr.VectorProgram, error) {
		e, err := sqlparser.ParseExpr(text)
		if err != nil {
			return nil, err
		}
		return expr.CompileVector(e, resolve, isDouble)
	}
	pred, err := compile("X3 > 0")
	if err != nil {
		return err
	}
	proj, err := compile("X1 + X2")
	if err != nil {
		return err
	}
	// The copied blocks hold X1..Xd in order, so schema ordinal o is
	// block column o-1.
	pick := func(blk [][]float64, p *expr.VectorProgram) [][]float64 {
		out := make([][]float64, len(p.Cols()))
		for i, ord := range p.Cols() {
			out[i] = blk[ord-1]
		}
		return out
	}
	allValid := func(n, rows int) [][]bool {
		v := make([][]bool, n)
		for i := range v {
			v[i] = make([]bool, rows)
			for r := range v[i] {
				v[i][r] = true
			}
		}
		return v
	}
	mask := make([]bool, 0, 4096)
	d, err := lc.bench("expr.VectorProgram.Eval", func() error {
		for _, blk := range blocks {
			rows := len(blk[0])
			pc := pick(blk, pred)
			truth, err := pred.EvalBool(pc, allValid(len(pc), rows), rows, nil)
			if err != nil {
				return err
			}
			mask = mask[:0]
			for _, tv := range truth[:rows] {
				mask = append(mask, tv > 0)
			}
			jc := pick(blk, proj)
			if _, _, err := proj.EvalNum(jc, allValid(len(jc), rows), rows, mask); err != nil {
				return err
			}
		}
		return nil
	})
	lc.m["expr.vector_ns_per_lane"] = float64(d) / float64(blockRows)
	return err
}

// incremental compares inserting into a table whose summary entry is
// warm (every row also folds into the cached n, L, Q) with inserting
// into one that has no entry. No end-to-end workload inserts under a
// warm summary yet, so the number is informational.
func (b *buildInstance) incremental(lc *layerCtx) error {
	eng := b.db.Engine()
	w := b.w
	const batch = 512
	pts, err := synth.Points(synth.Config{N: batch, D: w.gen.D, Seed: w.gen.Seed + 1})
	if err != nil {
		return err
	}
	rows := make([]sqltypes.Row, batch)
	for i, x := range pts {
		rows[i] = make(sqltypes.Row, len(x)+1)
		rows[i][0] = sqltypes.NewBigInt(int64(i))
		for a, v := range x {
			rows[i][a+1] = sqltypes.NewDouble(v)
		}
	}
	t, err := eng.CreateTable("INC", synth.XSchema(w.gen.D, false))
	if err != nil {
		return err
	}
	defer eng.DropTable("INC")
	insert := func() error { return t.Insert(rows...) }
	cold, err := lc.bench("storage.Insert (no summary)", insert)
	if err != nil {
		return err
	}
	if _, _, err := eng.SummaryNLQ(bg, "INC", w.cols, core.Triangular); err != nil {
		return err
	}
	warm, err := lc.bench("storage.Insert (warm summary)", insert)
	lc.m["summary.incremental_ns_per_row"] = float64(warm-cold) / batch
	return err
}

// ensureSegments times rebuilding every segment from the row log: the
// segment files are removed and the directory reattached, which is what
// a table loaded without its mirror pays before its first block scan.
// It runs last: the instance's own handle is stale afterwards.
func (b *buildInstance) ensureSegments(lc *layerCtx) error {
	segs, err := filepath.Glob(filepath.Join(b.dir, "*.seg"))
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			return err
		}
	}
	again, err := openDB(b.dir, true)
	if err != nil {
		return err
	}
	defer again.Close()
	t, err := again.Engine().Table("X")
	if err != nil {
		return err
	}
	done := lc.sc.begin("storage.EnsureSegments")
	t0 := time.Now()
	err = t.EnsureSegments()
	lc.m["storage.ensure_segments_ms"] = ms(time.Since(t0))
	done()
	return err
}
