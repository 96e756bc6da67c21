package main

// The names, units and directions below are the benchmark's contract
// with BENCHMARK.json at the repo root; TestSpecMatchesBenchmarkJSON
// fails when the two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is BENCHMARK.json's run_seconds: the default --seconds.
const runSeconds = 20

var workloadSpecs = []workloadSpec{
	{"build_udf", "row decode, per-row argument evaluation, the aggregate UDF and NLQ.Update do the work; wire, cluster and segments do none"},
	{"build_columnar", "segment decode, block kernels and vector programs carry it; the row codec and the tree-walking interpreter are bypassed"},
	{"ingest_score", "writes beside reads at low d: CSV import, bulk load and two scoring INSERT...SELECTs, so write amplification shows"},
	{"serve_point", "parse, sema, plan cache, wire, server and client dominate a tiny point query; kernel and storage work must not move it"},
	{"cluster_build", "build_udf's statement and data through client, wire, coordinator and two shards; the gap to build_udf prices the extra hops"},
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p95_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

var perLayerSpecs = []metricSpec{
	{"sqlparser.parse_us", "us", lower, 0},
	{"sema.check_us", "us", lower, 0},
	{"exec.prepare_us", "us", lower, 0},
	{"db.plan_cache_hit_ratio", "ratio", higher, 0},
	{"exec.scan_ms", "ms", lower, 0},
	{"exec.merge_us", "us", lower, 0},
	{"exec.finalize_us", "us", lower, 0},
	{"exec.rows_scanned_per_op", "count", lower, 0},
	{"storage.rowscan_ns_per_row", "ns", lower, 0},
	{"storage.rowscan_mb_s", "MB/s", higher, 0},
	{"storage.blockscan_ns_per_row", "ns", lower, 0},
	{"storage.blockscan_mb_s", "MB/s", higher, 0},
	{"storage.blocks_scanned_per_op", "count", lower, 0},
	{"storage.columnar_fallbacks", "count", lower, 0},
	{"storage.insert_ns_per_row", "ns", lower, 0},
	{"storage.bulkload_ns_per_row", "ns", lower, 0},
	{"storage.written_bytes_per_user_byte", "ratio", lower, 0},
	{"storage.stored_bytes_per_user_byte", "ratio", lower, 0},
	{"storage.ensure_segments_ms", "ms", lower, 0},
	{"expr.eval_ns_per_row", "ns", lower, 0},
	{"expr.vector_ns_per_lane", "ns", lower, 0},
	{"nlqudf.accumulate_ns_per_row", "ns", lower, 0},
	{"score.regscore_ns_per_call", "ns", lower, 0},
	{"score.clusterscore_ns_per_call", "ns", lower, 0},
	{"core.update_ns_per_row", "ns", lower, 0},
	{"core.update_gflops", "GFLOP/s", higher, 0},
	{"core.updateblock_ns_per_row", "ns", lower, 0},
	{"core.updateblock_gflops", "GFLOP/s", higher, 0},
	{"core.merge_us", "us", lower, 0},
	{"core.pack_us", "us", lower, 0},
	{"core.unpack_us", "us", lower, 0},
	{"core.models_us", "us", lower, 0},
	{"summary.rebuild_ms", "ms", lower, 0},
	{"summary.hit_us", "us", lower, 0},
	{"summary.incremental_ns_per_row", "ns", lower, 0},
	{"statsudf.importcsv_ns_per_row", "ns", lower, 0},
	{"wire.encode_batch_ns_per_row", "ns", lower, 0},
	{"wire.decode_batch_ns_per_row", "ns", lower, 0},
	{"wire.bytes_per_row", "B", lower, 0},
	{"wire.ping_us", "us", lower, 0},
	{"server.overhead_us", "us", lower, 0},
	{"server.admission_rejects", "count", lower, 0},
	{"client.prepared_p50_us", "us", lower, 0},
	{"client.adhoc_p50_us", "us", lower, 0},
	{"client.req_p99_us", "us", lower, 0},
	{"client.req_p999_us", "us", lower, 0},
	{"client.retries", "count", lower, 0},
	{"cluster.overhead_ms", "ms", lower, 0},
	{"cluster.fanouts_per_op", "count", lower, 0},
	{"cluster.partials_merged_per_op", "count", lower, 0},
	{"cluster.shard_errors", "count", lower, 0},
	{"cluster.load_rows_per_s", "1/s", higher, 0},
	{"bench.generator_us_per_op", "us", lower, 0},
	{"bench.unattributed_ratio", "ratio", lower, 0},
	{"bench.trace_overhead_ratio", "ratio", lower, 0},
}

// countMetrics are the per-layer metrics that are counts made by the
// program: equal seeds give exactly equal values, and a change of seed
// changes the data but not these.
var countMetrics = []string{
	"exec.rows_scanned_per_op",
	"storage.blocks_scanned_per_op",
	"storage.stored_bytes_per_user_byte",
	"storage.written_bytes_per_user_byte",
	"wire.bytes_per_row",
	"cluster.partials_merged_per_op",
	"cluster.fanouts_per_op",
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
