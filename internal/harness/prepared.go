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
// serves the plan), and prepared (one parameterized text, its `?` bound
// per request; the same plan cache serves it).
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
		Note:   fmt.Sprintf("each arm issues %d single-point", requests) + " scoring requests; ad-hoc requests are textually unique so every one is parsed, checked and planned from scratch.",
	}
	cfg.Partitions = 4 // point queries, not bulk scans
	cacheHits := -1.0
	for _, nk := range []int{1, 10} {
		n := cfg.rows(nk)
		if n <= 2*dims { // regression training needs n > d+1 even at tiny scales
			n = 2*dims + 2
		}
		err := withDataset(cfg, dataset{n: n, dims: dims, models: k, memory: true}, func(e *env) error {
			srv, err := serve(e.db.Engine())
			if err != nil {
				return err
			}
			defer srv.Close()
			pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "harness", PoolSize: 2})
			if err != nil {
				return err
			}
			defer pool.Close()
			base := sqlgen.RegScoreUDF("X", "BETA", "i", e.cols)

			cachedSQL := fmt.Sprintf("%s WHERE X.i = %d", base, n/2)
			stmt := pool.Prepare(base + " WHERE X.i = ?")
			var rates []float64 // ad-hoc, plan-cache, prepared
			for _, request := range []func(r int) error{
				func(r int) error {
					// The trailing comment makes every request's text unique, so
					// the plan cache cannot help.
					_, err := pool.Query(cfg.ctx(), fmt.Sprintf("%s WHERE X.i = %d /* adhoc %d */", base, r%n, r))
					return err
				},
				func(int) error { _, err := pool.Query(cfg.ctx(), cachedSQL); return err },
				func(r int) error { _, err := stmt.Query(cfg.ctx(), sqltypes.NewBigInt(int64(r%n))); return err },
			} {
				rate, err := qps(cfg, requests, request)
				if err != nil {
					return err
				}
				rates = append(rates, rate)
			}
			t.add(sizeLabel(nk, n), number("%.0f", rates[0]), number("%.0f", rates[1]), number("%.0f", rates[2]),
				number("%.2fx", rates[2]/rates[0]))

			// Read the process-wide plan-cache counter through the same
			// wire path a client would use.
			res, err := pool.Query(cfg.ctx(), "SELECT name, value FROM sys.metrics WHERE name = 'engine_plan_cache_hits'")
			if err == nil && len(res.Rows) == 1 {
				cacheHits, _ = res.Rows[0][1].Float()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// A zero hit count means the cache never served.
	if cacheHits >= 0 {
		t.Note += fmt.Sprintf(" engine_plan_cache_hits=%.0f after the run.", cacheHits)
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
