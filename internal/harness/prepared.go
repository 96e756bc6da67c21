package harness

import (
	"fmt"
	"time"

	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
	"repro/pkg/client"
)

// runPreparedQPS (a6) measures the high-QPS statement path: many small
// point-scoring requests over the wire, where per-statement planning
// cost rivals the scan itself. Three clients issue the same workload:
// ad-hoc (every request is unique SQL text, planned from scratch),
// plan-cache (identical text each time; the server's LRU plan cache
// serves the plan), and prepared (PREPARE once, EXECUTE with a bound
// `?` parameter per request).
func runPreparedQPS(cfg Config) ([]*Table, error) {
	// d=32 matches the paper's widest scoring models and makes the
	// per-statement planning cost (parse, sema, compile of a 33-arg UDF
	// call) visible next to a point scan; few partitions keep the scan
	// fan-out from drowning it.
	const dims, k = 32, 4
	const requests = 200
	t := &Table{
		ID:     "a6",
		Title:  fmt.Sprintf("Point-scoring QPS over the wire at d=%d: ad-hoc SQL vs plan cache vs PREPARE/EXECUTE", dims),
		Header: []string{"n x1000(scaled)", "ad-hoc qps", "plan-cache qps", "prepared qps", "prepared/ad-hoc"},
		Note:   "each arm issues " + itoa(requests) + " single-point scoring requests; ad-hoc requests are textually unique so every one is parsed, checked and planned from scratch.",
	}
	// An in-memory database: the bulk experiments deliberately re-read
	// partition files on every scan (the paper's cache-free methodology),
	// but a point-serving workload assumes a hot working set — here the
	// statement path, not the disk, should be the variable under test.
	cfg.Partitions = 4 // point queries, not bulk scans
	d, err := openMem(cfg.Partitions)
	if err != nil {
		return nil, err
	}
	srv, err := serve(d.Engine())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// Auto-prepare is disabled so the ad-hoc and plan-cache arms really
	// go through MsgQuery; the prepared arm uses the explicit Stmt API.
	pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "harness", PoolSize: 2, AutoPrepareAfter: -1})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	dcols := sqlgen.Dims(dims)
	for _, nk := range []int{1, 10} {
		n := cfg.rows(nk)
		if n <= 2*dims { // regression training needs n > d+1 even at tiny scales
			n = 2*dims + 2
		}
		if err := prepareScoringModels(d, cfg, n, dims, k); err != nil {
			return nil, err
		}
		base := sqlgen.RegScoreUDF("X", "BETA", "i", dcols)

		adhoc, err := qps(cfg, requests, func(r int) error {
			// The trailing comment makes every request's text unique, so
			// neither the plan cache nor a prepared handle can help.
			sql := fmt.Sprintf("%s WHERE X.i = %d /* adhoc %d */", base, r%n, r)
			_, err := pool.Query(cfg.ctx(), sql)
			return err
		})
		if err != nil {
			return nil, err
		}

		cachedSQL := fmt.Sprintf("%s WHERE X.i = %d", base, n/2)
		cached, err := qps(cfg, requests, func(int) error {
			_, err := pool.Query(cfg.ctx(), cachedSQL)
			return err
		})
		if err != nil {
			return nil, err
		}

		stmt := pool.Prepare(base + " WHERE X.i = ?")
		prepared, err := qps(cfg, requests, func(r int) error {
			_, err := stmt.Query(cfg.ctx(), sqltypes.NewBigInt(int64(r%n)))
			return err
		})
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%d rows)", nk, n),
			fmt.Sprintf("%.0f", adhoc),
			fmt.Sprintf("%.0f", cached),
			fmt.Sprintf("%.0f", prepared),
			fmt.Sprintf("%.2fx", prepared/adhoc),
		})
	}

	// Surface the plan-cache counters through the same wire path a
	// client would use; a zero hit count means the cache never served.
	res, err := pool.Query(cfg.ctx(), "SELECT name, value FROM sys.metrics WHERE name = 'engine_plan_cache_hits'")
	if err == nil && len(res.Rows) == 1 {
		hits, _ := res.Rows[0][1].Float()
		t.Note += fmt.Sprintf(" engine_plan_cache_hits=%.0f after the run.", hits)
	}
	return []*Table{t}, nil
}

// qps runs fn for the given number of requests and returns the
// achieved requests/second.
func qps(cfg Config, requests int, fn func(r int) error) (float64, error) {
	start := time.Now()
	for r := 0; r < requests; r++ {
		if err := cfg.ctx().Err(); err != nil {
			return 0, err
		}
		if err := fn(r); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(requests) / elapsed.Seconds(), nil
}
