// Command bench regenerates the paper's evaluation: every table
// (1-6) and figure (1-6) plus the repository's ablations, printed as
// aligned text tables.
//
// Usage:
//
//	bench [-scale 0.05] [-partitions 20] [-runs 1] [-exp t1,f3,...]
//	      [-odbc-mbps 100] [-odbc-timescale 0] [-seed 2007]
//	      [-json out/] [-debug-addr :6060] [-check-metrics]
//
// -scale 1 runs the paper's full row counts (n up to 1.6M); the
// default 0.05 finishes in minutes on a laptop. -exp selects specific
// experiments; the default runs everything in paper order.
//
// -json writes each experiment's tables as BENCH_<id>.json artifacts;
// -debug-addr serves live /metrics and /debug/pprof while the bench
// runs; -check-metrics verifies afterwards (through a SQL query
// against sys.metrics) that the engine's scan counters actually moved,
// the smoke assertion CI runs.
//
// SIGINT/SIGTERM interrupts a run gracefully: the in-flight statement
// is cancelled through its run context, no further experiments start,
// the metrics gathered so far are flushed to stderr, and the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/engine/db"
	"repro/internal/engine/obs"
	"repro/internal/harness"
	"repro/internal/odbcsim"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fraction of the paper's row counts (1 = full size)")
	partitions := flag.Int("partitions", 20, "engine parallelism (the paper's Teradata had 20 threads)")
	runs := flag.Int("runs", 1, "repetitions averaged per measurement (the paper used 5)")
	exp := flag.String("exp", "", "comma-separated experiment ids (t1..t6, f1..f6, a1..a8); empty runs all")
	odbcMbps := flag.Float64("odbc-mbps", 100, "modeled ODBC LAN bandwidth in megabits/s")
	odbcRow := flag.Int("odbc-row-overhead", 512, "modeled per-row ODBC framing overhead in bytes")
	timescale := flag.Float64("odbc-timescale", 0, "fraction of modeled ODBC delay actually slept (0 = report only)")
	seed := flag.Int64("seed", 2007, "workload seed")
	dir := flag.String("dir", "", "table directory (default: a temp dir per experiment)")
	jsonDir := flag.String("json", "", "write BENCH_<id>.json artifacts into this directory")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/queries and /debug/pprof on this address while running")
	checkMetrics := flag.Bool("check-metrics", false, "after running, assert via sys.metrics that the engine counters moved")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := harness.Config{
		Ctx:        ctx,
		Scale:      *scale,
		Partitions: *partitions,
		Runs:       *runs,
		Dir:        *dir,
		Seed:       *seed,
		Out:        os.Stdout,
		JSONDir:    *jsonDir,
		ODBC: odbcsim.Config{
			BytesPerSec:         *odbcMbps * 1e6 / 8,
			PerRowOverheadBytes: *odbcRow,
			TimeScale:           *timescale,
		},
	}

	if *debugAddr != "" {
		srv, err := db.Open(db.Options{}).ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s/metrics\n", srv.Addr)
	}
	var ids []string
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	fmt.Printf("statsudf bench: scale=%g partitions=%d runs=%d seed=%d\n",
		*scale, *partitions, *runs, *seed)
	if err := harness.RunAll(cfg, ids); err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			// Graceful interrupt: report what ran and exit clean.
			fmt.Fprintln(os.Stderr, "bench: interrupted, metrics so far:")
			obs.Default.WritePrometheus(os.Stderr)
			return
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *checkMetrics {
		if err := assertMetrics(ids); err != nil {
			fmt.Fprintln(os.Stderr, "bench: metrics check failed:", err)
			os.Exit(1)
		}
		fmt.Println("metrics check: ok")
	}
}

// assertMetrics queries sys.metrics through the SQL path — metrics are
// process-wide, so a fresh in-memory instance sees everything the
// experiments did — and fails if the core engine counters are zero.
// When the a5 ablation ran (explicitly or because the whole suite
// did), the summary-cache counters must have moved too: a warm build
// with zero cache hits or zero incremental updates means the cache is
// silently falling back to rescans. Likewise a6 must have produced
// plan-cache hits: zero hits means every repeated statement was
// re-planned and the high-QPS path silently degraded to ad-hoc.
func assertMetrics(ids []string) error {
	d := db.Open(db.Options{})
	res, err := d.Exec("SELECT name, value FROM sys.metrics")
	if err != nil {
		return err
	}
	vals := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		f, _ := row[1].Float()
		vals[row[0].Str()] = f
	}
	want := []string{
		"engine_rows_scanned_total",
		"engine_rows_inserted_total",
		"engine_queries_total",
		// Tail sampling keeps the first healthy trace deterministically,
		// so any bench run must retain at least one trace with spans.
		"engine_trace_retained_total",
		"engine_trace_spans_total",
	}
	ranSummary := len(ids) == 0
	ranPrepared := len(ids) == 0
	ranCluster := len(ids) == 0
	ranColumnar := len(ids) == 0
	for _, id := range ids {
		if id == "a5" {
			ranSummary = true
		}
		if id == "a6" {
			ranPrepared = true
		}
		if id == "a7" {
			ranCluster = true
		}
		if id == "a8" {
			ranColumnar = true
		}
	}
	if ranSummary {
		want = append(want,
			"engine_summary_hits",
			"engine_summary_incremental_updates",
		)
	}
	if ranPrepared {
		want = append(want, "engine_plan_cache_hits")
	}
	if ranCluster {
		// The scale-out ablation must actually have fanned statements
		// out, merged shard partials, and exercised the dead-shard
		// path; zeros mean the coordinator quietly ran everything
		// locally.
		want = append(want,
			"engine_cluster_fanouts_total",
			"engine_cluster_partials_merged_total",
			"engine_cluster_shard_errors_total",
		)
	}
	if ranColumnar {
		// The rows-vs-blocks ablation must actually have taken the
		// block path (blocks scanned, vector programs run) and
		// exercised at least one row-path fallback: zeros mean on-disk
		// scans silently degraded to row-at-a-time everywhere, or that
		// unsupported shapes are no longer detected.
		want = append(want,
			"engine_columnar_blocks_scanned_total",
			"engine_columnar_vector_ops_total",
			"engine_columnar_fallbacks_total",
		)
	}
	for _, name := range want {
		if vals[name] <= 0 {
			return fmt.Errorf("%s = %v, want > 0 after a bench run", name, vals[name])
		}
	}
	return nil
}
