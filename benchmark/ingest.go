package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

// ingestWorkload loads a CSV batch into a fresh table, scores it twice
// against stored models into output tables, and drops it: the storage
// layer used for writes beside reads, at a d where per-row overheads
// rather than the d² kernel dominate. Nothing grows, so it is
// stationary.
type ingestWorkload struct {
	cfg     config
	cols    []string
	reg     *core.LinRegModel
	km      *core.KMeansModel
	batches []ingestBatch
	regSQL  string // the scoring SELECTs ScoreRegression/ScoreKMeans insert from
	kmSQL   string
}

// ingestBatch is one pre-rendered CSV file with the reference scores
// of a fixed sample of its ids.
type ingestBatch struct {
	csv    []byte
	sample map[int64]refScore
}

type refScore struct {
	yhat    float64
	cluster int64
}

const ingestSamples = 16

func newIngestWorkload(cfg config) (*ingestWorkload, error) {
	sz := cfg.sz
	w := &ingestWorkload{cfg: cfg, cols: statsudf.DimColumns(sz.ingestDims)}
	w.regSQL = sqlgen.RegScoreUDF("B", "BETA", "i", w.cols)
	w.kmSQL = sqlgen.ClusterScoreUDF("B", "C", "i", w.cols, sz.ingestK)

	// The stored models are the generator's own: building models is the
	// build workloads' business.
	rng := rand.New(rand.NewSource(cfg.seed))
	w.reg = &core.LinRegModel{D: sz.ingestDims, Beta: make([]float64, sz.ingestDims+1)}
	for i := range w.reg.Beta {
		w.reg.Beta[i] = rng.NormFloat64()
	}
	w.km = &core.KMeansModel{D: sz.ingestDims, K: sz.ingestK, W: make([]float64, sz.ingestK)}
	for j := 0; j < sz.ingestK; j++ {
		c, r := make([]float64, sz.ingestDims), make([]float64, sz.ingestDims)
		for a := range c {
			c[a], r[a] = 100*rng.Float64(), 100
		}
		w.km.C, w.km.R = append(w.km.C, c), append(w.km.R, r)
		w.km.W[j] = 1 / float64(sz.ingestK)
	}

	header := "i," + strings.Join(w.cols, ",") + "\n"
	for b := 0; b < sz.ingestBatch; b++ {
		gen := synth.Config{N: sz.ingestRows, D: sz.ingestDims, Seed: cfg.seed + 1 + int64(b)}
		var buf bytes.Buffer
		buf.WriteString(header)
		if _, err := synth.WriteCSV(&buf, gen); err != nil {
			return nil, err
		}
		batch := ingestBatch{csv: buf.Bytes(), sample: map[int64]refScore{}}
		step := int64(sz.ingestRows / ingestSamples)
		if step < 1 {
			step = 1
		}
		err := synth.Stream(gen, func(i int64, x []float64) error {
			if i%step == 0 {
				batch.sample[i] = w.reference(x)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		w.batches = append(w.batches, batch)
	}
	return w, nil
}

// reference scores one point against the generator's models.
func (w *ingestWorkload) reference(x []float64) refScore {
	ref := refScore{yhat: w.reg.Beta[0]}
	for a, v := range x {
		ref.yhat += w.reg.Beta[a+1] * v
	}
	best := math.Inf(1)
	for j, c := range w.km.C {
		var dist float64
		for a, v := range x {
			dist += (v - c[a]) * (v - c[a])
		}
		if dist < best {
			best, ref.cluster = dist, int64(j+1)
		}
	}
	return ref
}

func (w *ingestWorkload) clients() int   { return 1 }
func (w *ingestWorkload) warmupOps() int { return w.cfg.sz.warmupOps }

func (w *ingestWorkload) setUp(dir string) (instance, error) {
	d, err := openDB(dir, false)
	if err != nil {
		return nil, err
	}
	if err := d.StoreRegression("BETA", w.reg); err != nil {
		return nil, err
	}
	if err := d.StoreKMeans("C", "R", "W", w.km); err != nil {
		return nil, err
	}
	return &ingestInstance{w: w, db: d}, nil
}

type ingestInstance struct {
	w          *ingestWorkload
	db         *statsudf.DB
	disk, user int64 // B's bytes at rest, seen after its last import
}

func (in *ingestInstance) close() error               { return in.db.Close() }
func (in *ingestInstance) stored() (int64, int64)     { return in.disk, in.user }
func (in *ingestInstance) batch(seq int) *ingestBatch { return &in.w.batches[seq%len(in.w.batches)] }

func (in *ingestInstance) op(c *worker) (func() error, error) {
	w, d := in.w, in.db
	b := in.batch(c.seq)
	rows := int64(w.cfg.sz.ingestRows)

	done := c.sc.begin("statsudf.ImportCSV")
	n, err := d.ImportCSV("B", bytes.NewReader(b.csv), true)
	done()
	if err != nil {
		return nil, err
	}
	done = c.sc.begin("statsudf.ScoreRegression")
	scored, err := d.ScoreRegression("B", "i", w.cols, "BETA", "SR")
	done()
	if err != nil {
		return nil, err
	}
	done = c.sc.begin("statsudf.ScoreKMeans")
	assigned, err := d.ScoreKMeans("B", "i", w.cols, "C", "SK", w.cfg.sz.ingestK)
	done()
	if err != nil {
		return nil, err
	}
	in.disk, in.user = tableBytes(d.Engine(), "B")
	done = c.sc.begin("db.Exec DROP TABLE")
	_, err = d.Exec("DROP TABLE B")
	done()
	if err != nil {
		return nil, err
	}
	return func() error {
		if n != rows || scored != rows || assigned != rows {
			return fmt.Errorf("imported %d, scored %d, assigned %d rows, want %d each", n, scored, assigned, rows)
		}
		return in.checkScores(b)
	}, nil
}

// checkScores reads the two output tables back and compares the
// sampled ids with the reference.
func (in *ingestInstance) checkScores(b *ingestBatch) error {
	seen := 0
	for _, out := range []struct {
		table string
		ok    func(ref refScore, v sqltypes.Value) bool
	}{
		{"SR", func(ref refScore, v sqltypes.Value) bool {
			f, ok := v.Float()
			return ok && closeTo(f, ref.yhat, tolerance)
		}},
		{"SK", func(ref refScore, v sqltypes.Value) bool { f, ok := v.Float(); return ok && f == float64(ref.cluster) }},
	} {
		t, err := in.db.Engine().Table(out.table)
		if err != nil {
			return err
		}
		if t.NumRows() != int64(in.w.cfg.sz.ingestRows) {
			return fmt.Errorf("%s holds %d rows, want %d", out.table, t.NumRows(), in.w.cfg.sz.ingestRows)
		}
		err = t.Scan(func(r sqltypes.Row) error {
			ref, sampled := b.sample[r[0].Int()]
			if !sampled {
				return nil
			}
			seen++
			if !out.ok(ref, r[1]) {
				return fmt.Errorf("%s: id %d scored %v, want %+v", out.table, r[0].Int(), r[1], ref)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if seen != 2*len(b.sample) {
		return fmt.Errorf("found %d of %d sampled scores", seen, 2*len(b.sample))
	}
	return nil
}

func (in *ingestInstance) layers(lc *layerCtx) error {
	w, eng := in.w, in.db.Engine()
	rows := w.cfg.sz.ingestRows
	width := scanWidth()
	// A resident copy of one batch stands in for B, which only exists
	// inside an operation.
	b := in.batch(0)
	if _, err := in.db.ImportCSV("B", bytes.NewReader(b.csv), true); err != nil {
		return err
	}
	defer in.db.Exec("DROP TABLE B")
	if err := lc.statement(eng, "INSERT INTO SR "+w.regSQL, false); err != nil {
		return err
	}
	_, _, _, err := lc.execStats("db.QueryStream", func() (*exec.Stats, error) {
		_, st, err := eng.QueryStreamContext(bg, w.regSQL, discardRow)
		return st, err
	})
	if err != nil {
		return err
	}
	t, err := eng.Table("B")
	if err != nil {
		return err
	}
	disk, user := tableBytes(eng, "B")
	lc.m["storage.written_bytes_per_user_byte"] = float64(disk) / float64(user)
	scanNs, err := lc.rowScan(t)
	if err != nil {
		return err
	}
	importNs := float64(lc.liveP50("statsudf.ImportCSV")) / float64(rows)
	lc.m["statsudf.importcsv_ns_per_row"] = importNs

	// Write path: the same rows through the bulk loader and through
	// batched inserts, into scratch tables.
	sample, err := sampleRows(t, rows)
	if err != nil {
		return err
	}
	bulkNs, err := in.writePath(lc, "storage.BulkLoader", sample, func(name string) error {
		st, err := eng.Table(name)
		if err != nil {
			return err
		}
		bl, err := st.NewBulkLoader()
		if err != nil {
			return err
		}
		for _, r := range sample {
			if err := bl.Add(r); err != nil {
				bl.Close()
				return err
			}
		}
		return bl.Close()
	})
	if err != nil {
		return err
	}
	lc.m["storage.bulkload_ns_per_row"] = bulkNs
	insertNs, err := in.writePath(lc, "storage.Insert", sample, func(name string) error {
		st, err := eng.Table(name)
		if err != nil {
			return err
		}
		for at := 0; at < len(sample); at += 256 {
			if err := st.Insert(sample[at:min(at+256, len(sample))]...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.m["storage.insert_ns_per_row"] = insertNs

	// Scoring expressions over rows joined with the model row(s), then
	// the scalar UDF bodies alone on the same arguments.
	regNs, regCall, err := in.scoreExprs(lc, w.regSQL, t, sample)
	if err != nil {
		return err
	}
	lc.m["score.regscore_ns_per_call"] = regCall
	lc.m["expr.eval_ns_per_row"] = regNs // the regression statement's, as exec.scan_ms is
	kmNs, kmCall, err := in.scoreExprs(lc, w.kmSQL, t, sample)
	if err != nil {
		return err
	}
	lc.m["score.clusterscore_ns_per_call"] = kmCall

	lc.stage("statsudf.importcsv (parse, self)", time.Duration((importNs-bulkNs)*float64(rows)))
	lc.stage("storage.bulkload", time.Duration(bulkNs*float64(rows)))
	lc.stage("storage.rowscan (2 scans)", 2*perRow(scanNs, rows, width))
	lc.stage("expr.eval regression (self)", perRow(regNs-regCall, rows, width))
	lc.stage("score.regscore", perRow(regCall, rows, width))
	lc.stage("expr.eval clustering (self)", perRow(kmNs-kmCall, rows, width))
	lc.stage("score.kdistance+clusterscore", perRow(kmCall, rows, width))
	lc.stage("storage.insert (2 output tables)", 2*time.Duration(insertNs*float64(rows)))
	lc.stage("db.Exec DROP TABLE", lc.liveP50("db.Exec DROP TABLE"))
	return nil
}

// writePath times load into a fresh scratch table per call.
func (in *ingestInstance) writePath(lc *layerCtx, name string, sample []sqltypes.Row, load func(table string) error) (nsPerRow float64, err error) {
	eng := in.db.Engine()
	t, err := eng.Table("B")
	if err != nil {
		return 0, err
	}
	defer func() {
		if eng.HasTable("SCRATCH") {
			eng.DropTable("SCRATCH")
		}
	}()
	d, err := lc.benchPrep(name, func() error {
		if eng.HasTable("SCRATCH") {
			if err := eng.DropTable("SCRATCH"); err != nil {
				return err
			}
		}
		_, err := eng.CreateTable("SCRATCH", t.Schema())
		return err
	}, func() error { return load("SCRATCH") })
	return float64(d) / float64(len(sample)), err
}

// scoreExprs evaluates the select items of a scoring statement over
// sample rows joined with the model tables' rows, and then the scalar
// UDF calls alone. Per row it returns the evaluators' time (which
// includes the calls) and the calls' own time.
func (in *ingestInstance) scoreExprs(lc *layerCtx, sql string, t *storage.Table, sample []sqltypes.Row) (evalNs, callNs float64, err error) {
	eng := in.db.Engine()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, 0, err
	}
	sel := stmt.(*sqlparser.Select)
	// The joined row: B's columns, then each model table reference's.
	names := []string{"B"}
	schemas := []*sqltypes.Schema{t.Schema()}
	var tail sqltypes.Row
	for _, ref := range sel.From[1:] {
		mt, err := eng.Table(ref.Name)
		if err != nil {
			return 0, 0, err
		}
		alias := ref.Alias
		if alias == "" {
			alias = ref.Name
		}
		names = append(names, alias)
		schemas = append(schemas, mt.Schema())
		// Reference k of C is filtered to centroid k by the WHERE clause.
		want := len(schemas) - 2
		var picked sqltypes.Row
		at := 0
		if err := mt.Scan(func(r sqltypes.Row) error {
			if at == want || picked == nil {
				picked = r.Clone()
			}
			at++
			return nil
		}); err != nil {
			return 0, 0, err
		}
		tail = append(tail, picked...)
	}
	joined := make([]sqltypes.Row, len(sample))
	for i, r := range sample {
		joined[i] = append(append(sqltypes.Row{}, r...), tail...)
	}
	exprs := make([]sqlparser.Expr, len(sel.Items))
	for i, it := range sel.Items {
		exprs[i] = it.Expr
	}
	resolve := schemaResolver(names, schemas)
	evalNs, _, err = lc.exprEval(exprs, resolve, eng.Scalars(), joined)
	if err != nil {
		return 0, 0, err
	}

	// The UDF bodies alone, on pre-evaluated arguments. The outer call's
	// arguments are either all plain (linearregscore) or all calls of
	// one more scalar UDF (clusterscore over k kdistance calls).
	call := sel.Items[1].Expr.(*sqlparser.FuncCall)
	outer, ok := eng.Scalars().Lookup(call.Name)
	if !ok {
		return 0, 0, fmt.Errorf("scalar %s is not registered", call.Name)
	}
	_, nested := call.Args[0].(*sqlparser.FuncCall)
	var innerFn []expr.ScalarFunc
	var innerArgs [][][]sqltypes.Value // per inner call, per row
	outerArgs := make([][]sqltypes.Value, len(joined))
	if !nested {
		if _, outerArgs, err = lc.exprEval(call.Args, resolve, eng.Scalars(), joined); err != nil {
			return 0, 0, err
		}
	}
	for _, a := range call.Args {
		fc, isCall := a.(*sqlparser.FuncCall)
		if isCall != nested {
			return 0, 0, fmt.Errorf("%s mixes nested calls and plain arguments", call.Name)
		}
		if !nested {
			continue
		}
		def, ok := eng.Scalars().Lookup(fc.Name)
		if !ok {
			return 0, 0, fmt.Errorf("scalar %s is not registered", fc.Name)
		}
		_, vals, err := lc.exprEval(fc.Args, resolve, eng.Scalars(), joined)
		if err != nil {
			return 0, 0, err
		}
		innerFn, innerArgs = append(innerFn, def.Fn), append(innerArgs, vals)
	}
	scratch := make([]sqltypes.Value, len(innerFn))
	d, err := lc.bench("score."+call.Name, func() error {
		for i := range joined {
			args := outerArgs[i]
			if nested {
				for k, fn := range innerFn {
					if scratch[k], err = fn(innerArgs[k][i]); err != nil {
						return err
					}
				}
				args = scratch
			}
			if _, err := outer.Fn(args); err != nil {
				return err
			}
		}
		return nil
	})
	return evalNs, float64(d) / float64(len(joined)), err
}
