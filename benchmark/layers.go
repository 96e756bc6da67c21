package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sema"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
	"repro/internal/server/wire"
)

// layerCtx collects the per-layer metrics of one traced run. The engine
// is opaque from outside, so each workload replays the stages of its
// operation on the same inputs through the layers' public functions,
// every call under a span below one "replay" root.
type layerCtx struct {
	cfg      config
	m        map[string]float64 // per-layer metric values; absent layers stay 0
	sc       *scope
	win      *window                    // the traced window
	live     map[string][]time.Duration // its spans' durations, by name
	delta    map[string]float64         // program counters moved during it
	ops      float64                    // operations it completed
	p50      time.Duration              // their median latency
	stages   []stageRow
	liveSelf []stageRow // the window's spans: median self time by name
	done     func()     // closes the replay root span
}

func newLayerCtx(cfg config, traced *window, delta map[string]float64, origin time.Time) *layerCtx {
	lc := &layerCtx{
		cfg: cfg, m: map[string]float64{}, sc: newScope(origin, -1),
		win: traced, delta: delta, ops: float64(traced.attempted - traced.failed),
		live: map[string][]time.Duration{},
	}
	self := map[string][]time.Duration{}
	for _, sc := range traced.scopes {
		for name, d := range spanDurations(sc.spans) {
			lc.live[name] = append(lc.live[name], d...)
		}
		for name, d := range selfTimes(sc.spans) {
			self[name] = append(self[name], d...)
		}
	}
	lc.p50 = medianDuration(traced.lat)
	for name, d := range self {
		lc.liveSelf = append(lc.liveSelf, stageRow{Stage: name, Ms: ms(medianDuration(d)), Share: ms(medianDuration(d)) / ms(lc.p50)})
	}
	sort.Slice(lc.liveSelf, func(i, j int) bool { return lc.liveSelf[i].Stage < lc.liveSelf[j].Stage })
	lc.done = lc.sc.begin("replay")
	return lc
}

// liveP50 is the median duration of the named span in the traced window.
func (lc *layerCtx) liveP50(name string) time.Duration { return medianDuration(lc.live[name]) }

// minSpan is the shortest replay span worth recording: shorter calls
// are repeated inside one span, so that the clock reads and the span
// itself stay small beside what they time.
const minSpan = 100 * time.Microsecond

// maxSpans bounds the spans one replay records.
const maxSpans = 2000

// bench replays fn under spans until layerDur has been measured (three
// spans at least) and returns the median duration of one call.
func (lc *layerCtx) bench(name string, fn func() error) (time.Duration, error) {
	calls := 1
	t0 := time.Now()
	if err := fn(); err != nil { // also sizes the spans
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if first := time.Since(t0); first < minSpan {
		calls = int(minSpan/max(first, 1)) + 1
	}
	d, err := lc.benchPrep(name, nil, func() error {
		for i := 0; i < calls; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(calls), err
}

// timed runs fn under one replay span.
func (lc *layerCtx) timed(name string, fn func() error) (time.Duration, error) {
	done := lc.sc.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	done()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// benchPrep is bench with an untimed prep before every call of fn.
func (lc *layerCtx) benchPrep(name string, prep func() error, fn func() error) (time.Duration, error) {
	var spans []time.Duration
	var total time.Duration
	for len(spans) < 3 || (total < lc.cfg.sz.layerDur && len(spans) < maxSpans) {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		d, err := lc.timed(name, fn)
		if err != nil {
			return 0, err
		}
		spans = append(spans, d)
		total += d
	}
	return medianDuration(spans), nil
}

// alternate replays a and b in turn, so that both see the same machine
// conditions, and returns each one's median call. It makes at least
// minCalls calls of each: a difference of two medians needs more calls
// than one median does.
func (lc *layerCtx) alternate(minCalls int, nameA string, a func() error, nameB string, b func() error) (da, db time.Duration, err error) {
	var as, bs []time.Duration
	var total time.Duration
	for len(as) < minCalls || total < 2*lc.cfg.sz.layerDur {
		ta, err := lc.timed(nameA, a)
		if err != nil {
			return 0, 0, err
		}
		tb, err := lc.timed(nameB, b)
		if err != nil {
			return 0, 0, err
		}
		as, bs, total = append(as, ta), append(bs, tb), total+ta+tb
	}
	return medianDuration(as), medianDuration(bs), nil
}

// stage adds one row to the "where the time goes" table: the time the
// stage is budgeted to take on one operation's blocking path.
func (lc *layerCtx) stage(name string, d time.Duration) {
	lc.stages = append(lc.stages, stageRow{Stage: name, Ms: ms(d)})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perRow budgets a single-threaded per-row cost over rows spread across
// the scan's parallel width.
func perRow(nsPerRow float64, rows, width int) time.Duration {
	return time.Duration(nsPerRow * float64(rows) / float64(width))
}

// table closes the budget with the explicit unattributed remainder.
func (lc *layerCtx) table() []stageRow {
	p50 := ms(lc.p50)
	var sum float64
	rows := append([]stageRow(nil), lc.stages...)
	for i := range rows {
		sum += rows[i].Ms
		rows[i].Share = rows[i].Ms / p50
	}
	rows = append(rows,
		stageRow{Stage: "bench.unattributed", Ms: p50 - sum, Share: (p50 - sum) / p50},
		stageRow{Stage: "op p50 (traced)", Ms: p50, Share: 1})
	return rows
}

// common fills the metrics every workload derives the same way: from
// the program's published counters and from the two windows.
func (lc *layerCtx) common(plain, traced *window, both map[string]float64, rec *runRecord) {
	lc.done()
	d := lc.delta
	perOp := func(counter string) float64 { return d[counter] / lc.ops }
	lc.m["exec.rows_scanned_per_op"] = perOp("engine_rows_scanned_total")
	lc.m["storage.blocks_scanned_per_op"] = perOp("engine_columnar_blocks_scanned_total")
	lc.m["cluster.fanouts_per_op"] = perOp("engine_cluster_fanouts_total")
	lc.m["cluster.partials_merged_per_op"] = perOp("engine_cluster_partials_merged_total")
	if lookups := d["engine_plan_cache_hits"] + d["engine_plan_cache_misses"]; lookups > 0 {
		lc.m["db.plan_cache_hit_ratio"] = d["engine_plan_cache_hits"] / lookups
	}
	// These must stay 0 over both windows.
	lc.m["storage.columnar_fallbacks"] = both["engine_columnar_fallbacks_total"]
	lc.m["server.admission_rejects"] = both["engine_server_admission_rejections_total"]
	lc.m["client.retries"] = both["engine_client_retries_total"]
	lc.m["cluster.shard_errors"] = both["engine_cluster_shard_errors_total"]
	if rec.UserB > 0 {
		lc.m["storage.stored_bytes_per_user_byte"] = float64(rec.StoredB) / float64(rec.UserB)
	}
	lc.m["bench.generator_us_per_op"] = us(traced.generator) / float64(traced.attempted)
	lc.m["bench.trace_overhead_ratio"] = 1 - traced.quietRate(rec.Clients)/plain.quietRate(rec.Clients)
	rec.Budget, rec.Live = lc.table(), lc.liveSelf
	lc.m["bench.unattributed_ratio"] = rec.Budget[len(lc.stages)].Share
}

// statement measures the front of the statement path on sql (a SELECT
// or an INSERT ... SELECT): parse, semantic check, and planning of the
// already parsed SELECT.
func (lc *layerCtx) statement(eng *db.DB, sql string, columnar bool) error {
	env := &exec.Env{Catalog: eng, Funcs: eng.Scalars(), Aggs: eng.Aggregates(), Columnar: columnar}
	var stmt sqlparser.Statement
	parse := func() (err error) {
		stmt, err = sqlparser.Parse(sql)
		return err
	}
	d, err := lc.bench("sqlparser.Parse", parse)
	if err != nil {
		return err
	}
	lc.m["sqlparser.parse_us"] = us(d)
	if d, err = lc.bench("sema.CheckStatement", func() error { return sema.CheckStatement(stmt, exec.SemaEnv(env)) }); err != nil {
		return err
	}
	lc.m["sema.check_us"] = us(d)
	// Planning gets a fresh tree every time, as a statement arriving as
	// text would give it.
	d, err = lc.benchPrep("exec.PrepareSelect", parse, func() error {
		sel, ok := stmt.(*sqlparser.Select)
		if ins, isIns := stmt.(*sqlparser.Insert); isIns {
			sel, ok = ins.Query, ins.Query != nil
		}
		if !ok {
			return fmt.Errorf("no SELECT in %T", stmt)
		}
		_, err := exec.PrepareSelect(sel, env)
		return err
	})
	lc.m["exec.prepare_us"] = us(d)
	return err
}

// execStats reports the phase times of the executor's own account of a
// statement: the medians over repeated runs.
func (lc *layerCtx) execStats(name string, run func() (*exec.Stats, error)) (scan, merge, finalize time.Duration, err error) {
	var scans, merges, finals []time.Duration
	_, err = lc.bench(name, func() error {
		st, err := run()
		if err != nil {
			return err
		}
		if st == nil {
			return fmt.Errorf("statement returned no execution statistics")
		}
		scans, merges, finals = append(scans, st.Scan), append(merges, st.Merge), append(finals, st.Finalize)
		return nil
	})
	scan, merge, finalize = medianDuration(scans), medianDuration(merges), medianDuration(finals)
	lc.m["exec.scan_ms"] = ms(scan)
	lc.m["exec.merge_us"] = us(merge)
	lc.m["exec.finalize_us"] = us(finalize)
	return scan, merge, finalize, err
}

// rowScan decodes every partition of the row log on one goroutine with
// a no-op callback.
func (lc *layerCtx) rowScan(t *storage.Table) (nsPerRow float64, err error) {
	var st storage.ScanStats
	d, err := lc.bench("storage.ScanPartition", func() error {
		st = storage.ScanStats{}
		for p := 0; p < t.Partitions(); p++ {
			ps, err := t.ScanPartitionStats(bg, p, discardRow)
			if err != nil {
				return err
			}
			st.Rows += ps.Rows
			st.Bytes += ps.Bytes
		}
		return nil
	})
	if err != nil || st.Rows == 0 {
		return 0, err
	}
	nsPerRow = float64(d) / float64(st.Rows)
	lc.m["storage.rowscan_ns_per_row"] = nsPerRow
	lc.m["storage.rowscan_mb_s"] = float64(st.Bytes) / 1e6 / d.Seconds()
	return nsPerRow, nil
}

// blockScan decodes the named columns of every segment on one goroutine
// with a no-op callback.
func (lc *layerCtx) blockScan(t *storage.Table, cols []int) (nsPerRow float64, err error) {
	var st storage.ScanStats
	d, err := lc.bench("storage.ScanPartitionBlocks", func() error {
		st = storage.ScanStats{}
		for p := 0; p < t.Partitions(); p++ {
			ps, err := t.ScanPartitionBlocks(bg, p, cols, func(*storage.Block) error { return nil })
			if err != nil {
				return err
			}
			st.Rows += ps.Rows
			st.Bytes += ps.Bytes
		}
		return nil
	})
	if err != nil || st.Rows == 0 {
		return 0, err
	}
	nsPerRow = float64(d) / float64(st.Rows)
	lc.m["storage.blockscan_ns_per_row"] = nsPerRow
	lc.m["storage.blockscan_mb_s"] = float64(st.Bytes) / 1e6 / d.Seconds()
	return nsPerRow, nil
}

// sampleRows returns up to limit decoded rows of partition 0.
func sampleRows(t *storage.Table, limit int) ([]sqltypes.Row, error) {
	var rows []sqltypes.Row
	stop := fmt.Errorf("enough")
	err := t.ScanPartition(bg, 0, func(r sqltypes.Row) error {
		if len(rows) == limit {
			return stop
		}
		rows = append(rows, r.Clone())
		return nil
	})
	if err != nil && err != stop {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("table %s: partition 0 is empty", t.Name())
	}
	return rows, nil
}

// schemaResolver resolves column references against a row that is the
// concatenation of the given tables' rows (FROM order).
func schemaResolver(names []string, schemas []*sqltypes.Schema) expr.Resolver {
	return func(table, column string) (int, error) {
		off := 0
		for i, s := range schemas {
			if table == "" || strings.EqualFold(table, names[i]) {
				if j := s.Index(column); j >= 0 {
					return off + j, nil
				}
			}
			off += s.Len()
		}
		return 0, fmt.Errorf("unknown column %s.%s", table, column)
	}
}

// exprEval runs the compiled tree-walking evaluators of exprs over
// pre-decoded rows, writing the values into out (one slice per row).
func (lc *layerCtx) exprEval(exprs []sqlparser.Expr, resolve expr.Resolver, funcs *expr.Registry, rows []sqltypes.Row) (nsPerRow float64, out [][]sqltypes.Value, err error) {
	evs := make([]expr.Evaluator, len(exprs))
	for i, e := range exprs {
		if evs[i], err = expr.Compile(e, resolve, funcs); err != nil {
			return 0, nil, err
		}
	}
	out = make([][]sqltypes.Value, len(rows))
	for i := range out {
		out[i] = make([]sqltypes.Value, len(evs))
	}
	d, err := lc.bench("expr.Evaluator.Eval", func() error {
		for r, row := range rows {
			for i, ev := range evs {
				v, err := ev.Eval(row)
				if err != nil {
					return err
				}
				out[r][i] = v
			}
		}
		return nil
	})
	return float64(d) / float64(len(rows)), out, err
}

// udfScan replays the aggregate-UDF scan of sql (SELECT nlq_list(...)
// FROM X) stage by stage over t and budgets each stage over rows.
func (lc *layerCtx) udfScan(eng *db.DB, t *storage.Table, sql string, rows, width int) error {
	scanNs, err := lc.rowScan(t)
	if err != nil {
		return err
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	call, ok := stmt.(*sqlparser.Select).Items[0].Expr.(*sqlparser.FuncCall)
	if !ok {
		return fmt.Errorf("%s: first item is not an aggregate call", sql)
	}
	sample, err := sampleRows(t, 4096)
	if err != nil {
		return err
	}
	resolve := schemaResolver([]string{t.Name()}, []*sqltypes.Schema{t.Schema()})
	evalNs, args, err := lc.exprEval(call.Args, resolve, eng.Scalars(), sample)
	if err != nil {
		return err
	}
	lc.m["expr.eval_ns_per_row"] = evalNs
	agg, ok := eng.Aggregates().Lookup(call.Name)
	if !ok {
		return fmt.Errorf("aggregate %s is not registered", call.Name)
	}
	var state udf.State
	d, err := lc.benchPrep("nlqudf.Accumulate", func() (err error) {
		state, err = agg.Init(udf.NewHeap(udf.SegmentSize))
		return err
	}, func() error {
		for _, a := range args {
			if err := agg.Accumulate(state, a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	accNs := float64(d) / float64(len(args))
	lc.m["nlqudf.accumulate_ns_per_row"] = accNs

	// The kernel alone, on the same points as plain float vectors.
	dims := len(call.Args) - 2
	points := make([][]float64, len(args))
	for i, a := range args {
		points[i] = make([]float64, dims)
		for j, v := range a[2:] {
			points[i][j], _ = v.Float()
		}
	}
	var s *core.NLQ
	d, err = lc.benchPrep("core.NLQ.Update", func() (err error) {
		s, err = core.NewNLQ(dims, core.Triangular)
		return err
	}, func() error {
		for _, x := range points {
			if err := s.Update(x); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	updNs := float64(d) / float64(len(points))
	lc.m["core.update_ns_per_row"] = updNs
	lc.m["core.update_gflops"] = nlqFlops(dims) / updNs

	lc.stage("storage.rowscan", perRow(scanNs, rows, width))
	lc.stage("expr.eval", perRow(evalNs, rows, width))
	lc.stage("nlqudf.accumulate (self)", perRow(accNs-updNs, rows, width))
	lc.stage("core.update", perRow(updNs, rows, width))
	return nil
}

// nlqFlops is the floating-point work of one triangular update at d
// dimensions: d(d+1)/2 multiply-adds for Q and d adds for L (1088 at
// d = 32).
func nlqFlops(d int) float64 { return float64(d*(d+1) + d) }

// nlqAlgebra measures what happens to a summary after the scan: the
// partial merge, pack, unpack and the three model builders.
func (lc *layerCtx) nlqAlgebra(parts []*core.NLQ) (merge, pack, unpack, models time.Duration, err error) {
	dst := parts[0].Clone()
	if merge, err = lc.bench("core.NLQ.Merge", func() error { return dst.Merge(parts[1]) }); err != nil {
		return
	}
	var packed string
	if pack, err = lc.bench("core.NLQ.Pack", func() error { packed = dst.Pack(); return nil }); err != nil {
		return
	}
	if unpack, err = lc.bench("core.Unpack", func() error { _, err := core.Unpack(packed); return err }); err != nil {
		return
	}
	models, err = lc.bench("core.models", func() error { return buildModels(dst) })
	lc.m["core.merge_us"] = us(merge)
	lc.m["core.pack_us"] = us(pack)
	lc.m["core.unpack_us"] = us(unpack)
	lc.m["core.models_us"] = us(models)
	return
}

// wireBatch measures the batch codec on result-shaped rows.
func (lc *layerCtx) wireBatch(rows []sqltypes.Row) error {
	var payload []byte
	d, err := lc.bench("wire.EncodeBatch", func() (err error) {
		payload, err = wire.EncodeBatch(rows)
		return err
	})
	if err != nil {
		return err
	}
	lc.m["wire.encode_batch_ns_per_row"] = float64(d) / float64(len(rows))
	lc.m["wire.bytes_per_row"] = float64(len(payload)) / float64(len(rows))
	d, err = lc.bench("wire.DecodeBatch", func() error {
		_, err := wire.DecodeBatch(payload)
		return err
	})
	lc.m["wire.decode_batch_ns_per_row"] = float64(d) / float64(len(rows))
	return err
}

// latencyQuantiles returns quantiles of the window's latencies of one
// request class (any class when kind < 0), in microseconds.
func latencyQuantiles(w *window, kind int, qs ...float64) []float64 {
	var v []float64
	for i, d := range w.lat {
		if kind < 0 || int(w.kind[i]) == kind {
			v = append(v, us(d))
		}
	}
	sort.Float64s(v)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(v, q)
	}
	return out
}
