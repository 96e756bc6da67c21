package obs

// The engine's own instruments, resolved once so hot paths touch only
// an atomic add. Counter totals are cumulative across every query the
// process has run; the sys.metrics system table and the /metrics debug
// endpoint read them live.
var (
	// RowsScanned counts driving-table rows delivered to partition scan
	// callbacks, added once per partition scan.
	RowsScanned = Default.Counter("engine_rows_scanned_total",
		"Rows delivered by partition scans across all queries.")
	// BytesRead counts encoded bytes decoded from partition files
	// (in-memory tables contribute 0).
	BytesRead = Default.Counter("engine_bytes_read_total",
		"Encoded bytes decoded from on-disk partition files.")
	// RowsEmitted counts rows delivered to result sinks, added once per
	// statement.
	RowsEmitted = Default.Counter("engine_rows_emitted_total",
		"Rows delivered to query result sinks.")
	// RowsInserted counts rows written by INSERT statements and bulk
	// loads.
	RowsInserted = Default.Counter("engine_rows_inserted_total",
		"Rows inserted into tables (INSERT and bulk loads).")
	// UDFCalls counts user-defined function work: scalar UDF
	// invocations plus aggregate-protocol Accumulate calls (in this
	// engine every aggregate runs the paper's four-phase UDF protocol).
	// Both are counted in plain counters of whoever owns the evaluators
	// (a partition worker, a statement's serial set) and added here when
	// that owner is released, so the total is exact once a statement has
	// returned — completed or failed — and lags while it runs.
	UDFCalls = Default.Counter("engine_udf_calls_total",
		"Scalar UDF invocations plus aggregate Accumulate calls.")
	// Queries counts statements executed; QueryErrors the subset that
	// failed; SlowQueries the subset over the slow-query threshold.
	Queries = Default.Counter("engine_queries_total",
		"SQL statements executed.")
	QueryErrors = Default.Counter("engine_query_errors_total",
		"SQL statements that returned an error.")
	SlowQueries = Default.Counter("engine_slow_queries_total",
		"Statements slower than the database's slow-query threshold.")
	// ActiveQueries is the number of statements currently executing.
	ActiveQueries = Default.Gauge("engine_active_queries",
		"Statements currently executing.")

	// Summary-cache instruments: the n/L/Q catalog reports how often
	// model builds were served warm (no scan, or only the rows appended
	// since), how often they read every row, and how many appended rows
	// warm reads read.
	SummaryHits = Default.Counter("engine_summary_hits",
		"Summary-cache reads served from a warm entry: no scan, or only the rows appended since.")
	SummaryMisses = Default.Counter("engine_summary_misses",
		"Summary-cache reads that read every row (cold entry, or the table's epoch moved).")
	SummaryIncremental = Default.Counter("engine_summary_incremental_updates",
		"Appended rows warm summary reads resumed their partitions over.")
	SummaryRebuildSeconds = Default.Histogram("engine_summary_rebuild_seconds",
		"Latency of summary-cache reads of every row (cold entries).", DurationBuckets)

	// Columnar-path instruments: the vectorized scan path reports how
	// many column blocks its block scans delivered, how many vector
	// kernel operations its compiled programs executed, and how often a
	// statement offered the block source fell back to the row-at-a-time
	// interpreter (unsupported expression shape or non-numeric
	// columns).
	ColumnarBlocksScanned = Default.Counter("engine_columnar_blocks_scanned_total",
		"Column blocks delivered by columnar partition scans.")
	ColumnarVectorOps = Default.Counter("engine_columnar_vector_ops_total",
		"Vector program instructions executed over column blocks.")
	ColumnarFallbacks = Default.Counter("engine_columnar_fallbacks_total",
		"Scans offered the block source that fell back to the row-at-a-time path.")

	// Plan-cache instruments: the statement path's LRU of prepared
	// plans reports read-through hits and misses, capacity evictions,
	// and entries discarded because a CREATE/DROP bumped the catalog
	// epoch after they were planned.
	PlanCacheHits = Default.Counter("engine_plan_cache_hits",
		"Statements served from a cached prepared plan (no parse/sema/plan).")
	PlanCacheMisses = Default.Counter("engine_plan_cache_misses",
		"Statements that missed the plan cache and were planned from scratch.")
	PlanCacheEvictions = Default.Counter("engine_plan_cache_evictions",
		"Plan-cache entries evicted by the LRU capacity bound.")
	PlanCacheInvalidations = Default.Counter("engine_plan_cache_invalidations",
		"Plan-cache entries discarded because the catalog epoch moved (DDL).")
	// PrepareSeconds is the one-time cost a PREPARE pays so EXECUTE can
	// skip it: parse, sema, view expansion, binding and closure
	// compilation.
	PrepareSeconds = Default.Histogram("engine_prepare_seconds",
		"Latency of preparing a statement (parse, sema, plan, compile).", DurationBuckets)

	// Per-phase latency histograms mirror the aggregate UDF protocol's
	// four phases (plan covers rewrite/binding/pushdown; scan is
	// phases 1-2; merge phase 3; finalize phase 4), plus the end-to-end
	// statement latency.
	PlanSeconds = Default.Histogram("engine_plan_seconds",
		"Plan phase latency (rewrite, binding, join-tail pushdown).", DurationBuckets)
	ScanSeconds = Default.Histogram("engine_scan_seconds",
		"Parallel partition scan latency (UDF phases 1-2).", DurationBuckets)
	MergeSeconds = Default.Histogram("engine_merge_seconds",
		"Cross-partition partial merge latency (UDF phase 3).", DurationBuckets)
	FinalizeSeconds = Default.Histogram("engine_finalize_seconds",
		"Finalization and post-aggregation latency (UDF phase 4).", DurationBuckets)
	QuerySeconds = Default.Histogram("engine_query_seconds",
		"End-to-end statement latency.", DurationBuckets)
)
