package main

import (
	"fmt"
	"math/rand"
	"time"

	statsudf "repro"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/server"
	"repro/internal/sqlgen"
	"repro/internal/synth"
	"repro/pkg/client"
)

// Request classes of serve_point.
const (
	kindPrepared uint8 = iota
	kindAdhoc
)

// adhocShare is the share of requests that arrive as textually unique
// SQL and are parsed, checked and planned from scratch.
const adhocShare = 0.10

// serveWorkload is the high-QPS path: a prepared point-scoring SELECT
// over a small in-memory table behind an in-process server on
// loopback, two connections of one pool, one closed-loop client each.
type serveWorkload struct {
	cfg      config
	cols     []string
	gen      synth.Config
	beta     []float64
	points   [][]float64
	base     string      // the scoring SELECT without its WHERE
	schedule [][]request // per client, cycled
}

type request struct {
	kind uint8
	id   int64
	sql  string // ad-hoc only
}

func newServeWorkload(cfg config) (*serveWorkload, error) {
	sz := cfg.sz
	w := &serveWorkload{cfg: cfg, cols: statsudf.DimColumns(sz.dims)}
	w.gen = synth.Config{N: sz.serveRows, D: sz.dims, Seed: cfg.seed}
	w.beta = make([]float64, sz.dims)
	for a := range w.beta {
		w.beta[a] = float64(a%5) - 2
	}
	var err error
	if w.points, err = synth.Points(w.gen); err != nil {
		return nil, err
	}
	w.base = sqlgen.RegScoreUDF("X", "BETA", "i", w.cols)
	// The whole request schedule is rendered before any clock starts.
	rng := rand.New(rand.NewSource(cfg.seed))
	w.schedule = make([][]request, w.clients())
	for c := range w.schedule {
		w.schedule[c] = make([]request, sz.schedule)
		for r := range w.schedule[c] {
			q := request{kind: kindPrepared, id: int64(rng.Intn(sz.serveRows))}
			if rng.Float64() < adhocShare {
				q.kind = kindAdhoc
				// The comment makes the text unique, so neither the plan
				// cache nor a prepared handle can serve it.
				q.sql = fmt.Sprintf("%s WHERE X.i = %d /* client %d request %d */", w.base, q.id, c, r)
			}
			w.schedule[c][r] = q
		}
	}
	return w, nil
}

func (w *serveWorkload) clients() int   { return 2 }
func (w *serveWorkload) warmupOps() int { return w.cfg.sz.serveWarmup }

func (w *serveWorkload) setUp(string) (instance, error) {
	// In memory: a point-serving workload assumes a hot working set, and
	// the statement path, not the disk, is what it measures.
	d, err := openDB("", false)
	if err != nil {
		return nil, err
	}
	if err := d.GenerateRegression("X", w.gen, 10, w.beta, 5); err != nil {
		return nil, err
	}
	s, err := d.Summary("X", append(append([]string{}, w.cols...), "Y"), statsudf.SummaryOptions{})
	if err != nil {
		return nil, err
	}
	model, err := statsudf.BuildLinRegFrom(s)
	if err != nil {
		return nil, err
	}
	if err := d.StoreRegression("BETA", model); err != nil {
		return nil, err
	}
	in := &serveInstance{w: w, db: d}
	// Reference scores: the stored model read back, applied to the
	// generator's own points outside the engine.
	stored, err := d.LoadRegression("BETA")
	if err != nil {
		return nil, err
	}
	in.want = make([]float64, len(w.points))
	for i, x := range w.points {
		in.want[i] = stored.Beta[0]
		for a, v := range x {
			in.want[i] += stored.Beta[a+1] * v
		}
	}
	in.srv = server.New(d.Engine(), server.Config{Addr: "127.0.0.1:0"})
	if err := in.srv.Start(); err != nil {
		return nil, err
	}
	// Auto-prepare is off so that ad-hoc requests really travel as
	// query frames; the prepared class uses the explicit Stmt.
	in.pool, err = client.Open(client.Config{Addr: in.srv.Addr(), User: "benchmark", PoolSize: w.clients(), AutoPrepareAfter: -1})
	if err != nil {
		in.srv.Close()
		return nil, err
	}
	in.stmt = in.pool.Prepare(w.base + " WHERE X.i = ?")
	return in, nil
}

type serveInstance struct {
	w    *serveWorkload
	db   *statsudf.DB
	srv  *server.Server
	pool *client.Pool
	stmt *client.Stmt
	want []float64
}

func (in *serveInstance) close() error {
	in.pool.Close()
	in.srv.Close()
	return in.db.Close()
}

func (in *serveInstance) stored() (int64, int64) { return 0, 0 }

func (in *serveInstance) op(c *worker) (func() error, error) {
	sched := in.w.schedule[c.id]
	q := &sched[c.seq%len(sched)]
	c.kind = q.kind
	var rows *client.Rows
	var err error
	if q.kind == kindPrepared {
		done := c.sc.begin("client.Stmt.Query")
		rows, err = in.stmt.Query(bg, sqltypes.NewBigInt(q.id))
		done()
	} else {
		done := c.sc.begin("client.Pool.Query")
		rows, err = in.pool.Query(bg, q.sql)
		done()
	}
	if err != nil {
		return nil, err
	}
	return func() error { return in.check(q.id, rows.Rows) }, nil
}

// check asserts exactly one row for a point request, carrying the
// requested id and its reference score.
func (in *serveInstance) check(id int64, rows []sqltypes.Row) error {
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Errorf("point request for id %d returned %d rows", id, len(rows))
	}
	yhat, ok := rows[0][1].Float()
	if rows[0][0].Int() != id || !ok || !closeTo(yhat, in.want[id], tolerance) {
		return fmt.Errorf("id %d scored (%v, %v), want %.17g", id, rows[0][0], rows[0][1], in.want[id])
	}
	return nil
}

func (in *serveInstance) layers(lc *layerCtx) error {
	w, eng := in.w, in.db.Engine()
	q := latencyQuantiles(lc.win, int(kindPrepared), 0.5)
	lc.m["client.prepared_p50_us"] = q[0]
	lc.m["client.adhoc_p50_us"] = latencyQuantiles(lc.win, int(kindAdhoc), 0.5)[0]
	tail := latencyQuantiles(lc.win, -1, 0.99, 0.999)
	lc.m["client.req_p99_us"], lc.m["client.req_p999_us"] = tail[0], tail[1]

	adhoc := fmt.Sprintf("%s WHERE X.i = %d", w.base, 1)
	if err := lc.statement(eng, adhoc, false); err != nil {
		return err
	}
	d, err := lc.bench("client.Pool.Ping", func() error { return in.pool.Ping(bg) })
	if err != nil {
		return err
	}
	lc.m["wire.ping_us"] = us(d)

	// The same prepared plan executed in-process, in turn with the wire
	// request: what is left of the wire request is client, wire and server.
	p, err := eng.Prepare(w.base + " WHERE X.i = ?")
	if err != nil {
		return err
	}
	defer p.Close()
	id := int64(0)
	var result []sqltypes.Row
	var scans []time.Duration
	viaWire, inproc, err := lc.alternate(3, "client.Stmt.Query", func() error {
		rows, err := in.stmt.Query(bg, sqltypes.NewBigInt(id))
		if err != nil {
			return err
		}
		return in.check(id, rows.Rows)
	}, "db.Prepared.Execute", func() error {
		res, err := p.Execute(sqltypes.NewBigInt(id))
		if err != nil {
			return err
		}
		result = res.Rows
		scans = append(scans, res.Stats.Scan)
		err = in.check(id, res.Rows)
		id = (id + 1) % int64(len(w.points))
		return err
	})
	if err != nil {
		return err
	}
	scan := medianDuration(scans)
	lc.m["exec.scan_ms"] = ms(scan)
	lc.m["server.overhead_us"] = us(viaWire - inproc)

	// Inside the scan: every row of the table through the WHERE
	// evaluator on one goroutine, and one scoring call. The rest of the
	// scan phase is the executor's partition fan-out.
	t, err := eng.Table("X")
	if err != nil {
		return err
	}
	scanNs, err := lc.rowScan(t)
	if err != nil {
		return err
	}
	sample, err := sampleRows(t, len(w.points))
	if err != nil {
		return err
	}
	where, err := sqlparser.ParseExpr("X.i = 1")
	if err != nil {
		return err
	}
	filterNs, _, err := lc.exprEval([]sqlparser.Expr{where}, schemaResolver([]string{"X"}, []*sqltypes.Schema{t.Schema()}), eng.Scalars(), sample)
	if err != nil {
		return err
	}
	lc.m["expr.eval_ns_per_row"] = filterNs
	rowWork := perRow(scanNs+filterNs, len(w.points), scanWidth())

	batch := make([]sqltypes.Row, 256)
	for i := range batch {
		batch[i] = result[0]
	}
	if err := lc.wireBatch(batch); err != nil {
		return err
	}
	if err := in.regScoreCall(lc); err != nil {
		return err
	}
	call := time.Duration(lc.m["score.regscore_ns_per_call"])
	lc.stage("client + wire + server", viaWire-inproc)
	lc.stage("storage.rowscan + expr.eval (WHERE)", rowWork)
	lc.stage("score.regscore", call)
	lc.stage("exec.scan (rest: partition fan-out)", scan-rowWork-call)
	lc.stage("db.Prepared.Execute (rest)", inproc-scan)
	return nil
}

// regScoreCall times the scalar UDF body on one point's arguments.
func (in *serveInstance) regScoreCall(lc *layerCtx) error {
	def, ok := in.db.Engine().Scalars().Lookup("linearregscore")
	if !ok {
		return fmt.Errorf("linearregscore is not registered")
	}
	stored, err := in.db.LoadRegression("BETA")
	if err != nil {
		return err
	}
	var args []sqltypes.Value
	for _, v := range in.w.points[0] {
		args = append(args, sqltypes.NewDouble(v))
	}
	for _, b := range stored.Beta {
		args = append(args, sqltypes.NewDouble(b))
	}
	d, err := lc.bench("score.linearregscore", func() error {
		_, err := def.Fn(args)
		return err
	})
	lc.m["score.regscore_ns_per_call"] = float64(d)
	return err
}
