package db

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

func newTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	d := Open(opts)
	if _, err := d.Exec("CREATE TABLE x (i INT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO x VALUES (1, 2.0), (2, 3.0), (3, 4.0)"); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRecentQueriesRingRecordsAllPaths(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})

	if _, err := d.Exec("SELECT sum(v) FROM x"); err != nil {
		t.Fatal(err)
	}
	// INSERT ... SELECT must land in the ring with scan stats.
	if _, err := d.Exec("CREATE TABLE y (i INT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("INSERT INTO y SELECT i, v FROM x"); err != nil {
		t.Fatal(err)
	}
	// Streamed queries must land in the ring too.
	_, streamStats, err := d.QueryStreamContext(context.Background(), "SELECT v FROM x", func(sqltypes.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	recs := d.RecentQueries()
	if len(recs) != 6 {
		t.Fatalf("ring holds %d records, want 6", len(recs))
	}
	// Newest first: the stream query is recs[0].
	if recs[0].SQL != "SELECT v FROM x" {
		t.Errorf("newest record = %q, want the streamed SELECT", recs[0].SQL)
	}
	if recs[0].Stats == nil || recs[0].Stats.RowsScanned != 3 {
		t.Errorf("streamed query stats = %+v, want 3 rows scanned", recs[0].Stats)
	}
	var insSel *QueryRecord
	for i := range recs {
		if strings.HasPrefix(recs[i].SQL, "INSERT INTO y") {
			insSel = &recs[i]
		}
	}
	if insSel == nil {
		t.Fatal("INSERT ... SELECT not recorded")
	}
	if insSel.Stats == nil || insSel.Stats.RowsScanned != 3 {
		t.Errorf("INSERT ... SELECT stats = %+v, want 3 rows scanned", insSel.Stats)
	}
	for i := range recs {
		if recs[i].ID == 0 {
			t.Errorf("record %d has no ID", i)
		}
	}

	// The ring records the very Stats the call handed its caller.
	if streamStats == nil || streamStats != recs[0].Stats {
		t.Errorf("streamed call returned stats %p, ring recorded %p", streamStats, recs[0].Stats)
	}
}

// TestSyntheticStatementsLogAsSQL: a statement handed to Run without
// source text is logged as the SQL it prints to (every kind, not a
// `<Insert>`-style tag), and that SQL parses back to the same statement.
func TestSyntheticStatementsLogAsSQL(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	num := func(n int64) sqlparser.Expr { return &sqlparser.NumberLit{IsInt: true, Int: n, Float: float64(n)} }
	for _, c := range []struct {
		stmt sqlparser.Statement
		want string
	}{
		{&sqlparser.CreateTable{Name: "syn", IfNotExists: true, Columns: []sqlparser.ColumnDef{{Name: "a", Type: "DOUBLE"}}},
			"CREATE TABLE IF NOT EXISTS syn (a DOUBLE)"},
		{&sqlparser.Insert{Table: "syn", Columns: []string{"a"}, Rows: [][]sqlparser.Expr{{num(1)}, {num(2)}}},
			"INSERT INTO syn (a) VALUES (1), (2)"},
		{&sqlparser.CreateView{Name: "synv", Query: &sqlparser.Select{
			Items: []sqlparser.SelectItem{{Expr: &sqlparser.ColumnRef{Name: "a"}, Alias: "b"}},
			From:  []sqlparser.TableRef{{Name: "syn"}}}},
			"CREATE VIEW synv AS SELECT a AS b FROM syn"},
		{&sqlparser.DropView{Name: "synv", IfExists: true}, "DROP VIEW IF EXISTS synv"},
		{&sqlparser.DropTable{Name: "syn"}, "DROP TABLE syn"},
	} {
		if _, err := d.Run(c.stmt); err != nil {
			t.Fatalf("%s: %v", c.want, err)
		}
		if got := d.RecentQueries()[0].SQL; got != c.want {
			t.Errorf("%T logged as %q, want %q", c.stmt, got, c.want)
		}
		back, err := sqlparser.Parse(c.want)
		if err != nil || back.String() != c.want {
			t.Errorf("%q does not parse back to itself: %v, %v", c.want, back, err)
		}
	}
}

func TestRecentQueriesRingBounded(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	for i := 0; i < queryRingSize+10; i++ {
		if _, err := d.Exec("SELECT sum(v) FROM x"); err != nil {
			t.Fatal(err)
		}
	}
	recs := d.RecentQueries()
	if len(recs) != queryRingSize {
		t.Fatalf("ring holds %d records, want %d", len(recs), queryRingSize)
	}
	// IDs keep increasing past the ring size and stay newest-first.
	if recs[0].ID <= int64(queryRingSize) {
		t.Errorf("newest ID = %d, want > %d", recs[0].ID, queryRingSize)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID != recs[i-1].ID-1 {
			t.Fatalf("IDs not consecutive newest-first at %d: %d then %d", i, recs[i-1].ID, recs[i].ID)
		}
	}
}

func TestFailedQueriesRecorded(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	if _, err := d.Exec("SELECT nope FROM x"); err == nil {
		t.Fatal("expected error for unknown column")
	}
	recs := d.RecentQueries()
	if recs[0].Err == "" {
		t.Errorf("failed query recorded without error: %+v", recs[0])
	}
}

func TestSlowQueryFlag(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2, SlowQuery: time.Nanosecond})
	if _, err := d.Exec("SELECT sum(v) FROM x"); err != nil {
		t.Fatal(err)
	}
	if recs := d.RecentQueries(); !recs[0].Slow {
		t.Errorf("query not flagged slow with 1ns threshold: %+v", recs[0])
	}

	// Default threshold: a trivial query must not be flagged.
	d2 := newTestDB(t, Options{Partitions: 2})
	if _, err := d2.Exec("SELECT sum(v) FROM x"); err != nil {
		t.Fatal(err)
	}
	if recs := d2.RecentQueries(); recs[0].Slow {
		t.Errorf("trivial query flagged slow under default threshold: %+v", recs[0])
	}
}

func TestSysMetricsLive(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	if _, err := d.Exec("SELECT sum(v) FROM x"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT name, value FROM sys.metrics WHERE name = 'engine_rows_scanned_total'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	v, _ := res.Rows[0][1].Float()
	if v < 3 {
		t.Errorf("engine_rows_scanned_total = %v, want >= 3", v)
	}
}

func TestSysQueriesViaSQL(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	if _, err := d.Exec("SELECT sum(v) FROM x"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT sql_text, rows_scanned FROM sys.queries WHERE rows_scanned > 0")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].Str() == "SELECT sum(v) FROM x" {
			found = true
			if n := row[1].Int(); n != 3 {
				t.Errorf("rows_scanned = %d, want 3", n)
			}
		}
	}
	if !found {
		t.Errorf("aggregate query not visible in sys.queries: %v", res.Rows)
	}
}

func TestSysTablesAndPartitions(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	res, err := d.Exec("SELECT name, partitions, num_rows FROM sys.tables")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "x" {
		t.Fatalf("sys.tables = %v, want one row for x", res.Rows)
	}
	if got := res.Rows[0][2].Int(); got != 3 {
		t.Errorf("num_rows = %d, want 3", got)
	}

	res, err = d.Exec("SELECT table_name, partition, num_rows FROM sys.partitions")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("sys.partitions returned %d rows, want 2", len(res.Rows))
	}
	var total int64
	for _, row := range res.Rows {
		total += row[2].Int()
	}
	if total != 3 {
		t.Errorf("partition rows sum to %d, want 3", total)
	}
}

// TestSysSegments: sys.segments reports, per partition of an on-disk
// table, the rows sealed in chunks, the bytes holding them and the rows
// in the row log after them; a commit seals whole chunks only, and the
// sealed bytes count in sys.tables' size_bytes.
func TestSysSegments(t *testing.T) {
	d := Open(Options{Partitions: 2, Dir: t.TempDir()})
	mustExec(t, d, "CREATE TABLE s (a DOUBLE, b BIGINT, c VARCHAR)")
	tab, err := d.Table("s")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2*storage.ChunkRows + 100 // per partition: a chunk and 50 rows
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewDouble(float64(i)), sqltypes.NewBigInt(int64(i)), sqltypes.NewVarChar("v")}
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT * FROM sys.segments ORDER BY partition")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range res.Schema.Columns {
		names = append(names, c.Name)
	}
	if want := []string{"table_name", "partition", "sealed_rows", "sealed_bytes", "tail_rows"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("sys.segments columns %v, want %v", names, want)
	}
	var sealed int64
	for p, r := range res.Rows {
		if r[0].Str() != "s" || r[1].Int() != int64(p) || r[2].Int() != storage.ChunkRows || r[3].Int() <= 0 || r[4].Int() != 50 {
			t.Fatalf("sys.segments row %d = %v, want s, %d, %d sealed, some bytes, 50 in the log", p, r, p, storage.ChunkRows)
		}
		sealed += r[3].Int()
	}
	log, err := tab.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	size := query(t, d, "SELECT size_bytes FROM sys.tables WHERE name = 's'")
	if want := fmt.Sprint(log + sealed); len(size) != 1 || size[0][0] != want {
		t.Fatalf("sys.tables size_bytes = %v, want %s", size, want)
	}
}

func TestSysNamespaceReserved(t *testing.T) {
	d := Open(Options{Partitions: 2})
	if _, err := d.Exec("CREATE TABLE sys.own (i INT)"); err == nil {
		t.Error("CREATE TABLE sys.own should be rejected")
	}
	schema, err := sqltypes.NewSchema(sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("sys.own", schema); err == nil {
		t.Error("CreateTable(sys.own) should be rejected")
	}
	if _, err := d.Exec("SELECT * FROM sys.bogus"); err == nil {
		t.Error("unknown sys table should error")
	}
}

func TestServeDebug(t *testing.T) {
	d := newTestDB(t, Options{Partitions: 2})
	if _, err := d.Exec("SELECT sum(v) FROM x"); err != nil {
		t.Fatal(err)
	}
	srv, err := d.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := httpGet(t, fmt.Sprintf("http://%s/metrics", srv.Addr))
	for _, want := range []string{
		"# TYPE engine_rows_scanned_total counter",
		"engine_rows_scanned_total",
		"engine_query_seconds_bucket{le=\"+Inf\"}",
		"engine_queries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	qbody := httpGet(t, fmt.Sprintf("http://%s/debug/queries", srv.Addr))
	var queries []struct {
		ID  int64  `json:"id"`
		SQL string `json:"sql"`
	}
	if err := json.Unmarshal([]byte(qbody), &queries); err != nil {
		t.Fatalf("/debug/queries is not JSON: %v\n%s", err, qbody)
	}
	if len(queries) == 0 || queries[0].SQL != "SELECT sum(v) FROM x" {
		t.Errorf("/debug/queries = %+v, want newest-first with the aggregate query", queries)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFailedScanKeepsPartialStats: a statement that fails mid-scan
// records how far it got — rows scanned, per-partition rows, the scan
// span — in the query ring on every dispatch path and from both scan
// sources, not only on the streamed row path: the row source of an
// in-memory table, the block source of an on-disk one. One worker scans
// the partitions in order, so the counts are exact: z's only zero sits at
// local row 5 of partition 0, where the row source stops after
// delivering 6 rows and the block source after the partition's one
// 20-row block, its rows sealed into a chunk; partitions 1 and 2 are
// never opened.
func TestFailedScanKeepsPartialStats(t *testing.T) {
	const divide = "SELECT 1.0 / a FROM z"
	for _, columnar := range []bool{false, true} {
		opts := Options{Partitions: 3, Workers: 1}
		if columnar {
			opts.Dir = t.TempDir()
		}
		d := Open(opts)
		mustExec(t, d, "CREATE TABLE z (a DOUBLE)")
		mustExec(t, d, "CREATE TABLE sink (v DOUBLE)")
		vals := make([]string, 60)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d.0)", i+1)
		}
		vals[15] = "(0.0)"
		mustExec(t, d, "INSERT INTO z VALUES "+strings.Join(vals, ", "))
		z, err := d.Table("z")
		if err == nil {
			err = z.EnsureSegments()
		}
		if err != nil {
			t.Fatal(err)
		}
		prep, err := d.Prepare(divide)
		if err != nil {
			t.Fatal(err)
		}
		discard := func(sqltypes.Row) error { return nil }
		projected := int64(6)
		if columnar {
			projected = 20
		}
		cases := []struct {
			name  string
			sql   string
			fault *storage.Fault
			want  int64
			run   func() error
		}{
			{"Exec", divide, nil, projected, func() error { _, err := d.Exec(divide + " /* text */"); return err }},
			{"QueryStream", divide, nil, projected, func() error { _, err := d.QueryStream(divide+" /* stream */", discard); return err }},
			{"Run", divide, nil, projected, func() error {
				stmt, err := sqlparser.Parse(divide)
				if err != nil {
					return err
				}
				_, err = d.Run(stmt)
				return err
			}},
			{"Prepared.Execute", divide, nil, projected, func() error { _, err := prep.Execute(); return err }},
			{"QueryContext stream", divide, nil, projected, func() error {
				_, err := d.QueryContext(context.Background(), divide, discard)
				return err
			}},
			{"plan cache hit", divide, nil, projected, func() error { _, err := d.Exec(divide + " /* text */"); return err }},
			{"INSERT SELECT", "INSERT", nil, projected, func() error { _, err := d.Exec("INSERT INTO sink " + divide); return err }},
			{"aggregate", "SELECT sum(a)", &storage.Fault{Partition: 0, ScanAfterRows: 4}, 4, func() error {
				_, err := d.Exec("SELECT sum(a) FROM z WHERE a > 0")
				return err
			}},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("columnar=%v %s", columnar, tc.name)
			tab, err := d.Table("z")
			if err != nil {
				t.Fatal(err)
			}
			tab.SetFault(tc.fault)
			err = tc.run()
			tab.SetFault(nil)
			if err == nil {
				t.Fatalf("%s: statement succeeded", name)
			}
			rec := d.RecentQueries()[0]
			if rec.Err == "" || !strings.HasPrefix(rec.SQL, tc.sql) {
				t.Fatalf("%s: newest record is %q (error %q)", name, rec.SQL, rec.Err)
			}
			st := rec.Stats
			if st == nil {
				t.Fatalf("%s: failed statement recorded no stats", name)
			}
			if st.RowsScanned != tc.want || len(st.PartitionRows) != 3 || st.PartitionRows[0] != tc.want || st.PartitionRows[1]+st.PartitionRows[2] != 0 {
				t.Errorf("%s: scanned %d %v, want %d in partition 0 only", name, st.RowsScanned, st.PartitionRows, tc.want)
			}
			if st.Scan <= 0 || st.Total < st.Scan || st.Root == nil || st.Root.SpanByName("scan") == nil {
				t.Errorf("%s: phase times missing: scan %v total %v", name, st.Scan, st.Total)
			}
			if tid := rec.TraceID; tid == "" || st.TraceID != tid {
				t.Errorf("%s: stats trace id %q, record %q", name, st.TraceID, tid)
			}
		}
		// sys.queries serves the same records.
		res, err := d.Exec("SELECT rows_scanned FROM sys.queries WHERE sql_text = '" + divide + "' AND error <> ''")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("columnar=%v: sys.queries lists no failed %q", columnar, divide)
		}
		for _, r := range res.Rows {
			if r[0].Int() != projected {
				t.Errorf("columnar=%v: sys.queries rows_scanned = %d, want %d", columnar, r[0].Int(), projected)
			}
		}
	}
}

// TestSysReadCountsNoColumnarFallback: a system table has no segments,
// so even on an instance whose tables are on disk a sys.* read is no
// block-scan candidate and counts no fallback — reading
// engine_columnar_fallbacks_total through sys.metrics, an aggregate, or
// sys.tables, a projection, must not move the counter it reads.
func TestSysReadCountsNoColumnarFallback(t *testing.T) {
	d := Open(Options{Dir: t.TempDir(), Partitions: 2})
	mustExec(t, d, "CREATE TABLE x (a DOUBLE)")
	const q = "SELECT sum(value) FROM sys.metrics WHERE name = 'engine_columnar_fallbacks_total'"
	first := query(t, d, q)
	query(t, d, "SELECT name FROM sys.tables WHERE name = 'x'")
	if second := query(t, d, q); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("engine_columnar_fallbacks_total moved from %v to %v across sys.* reads", first, second)
	}
}

// fsum is sum(x) with a float body, so its scans are offered blocks.
type fsum struct{}

func (fsum) Name() string                        { return "fsum" }
func (fsum) CheckArgs(int) error                 { return nil }
func (fsum) LeadArgs() int                       { return 0 }
func (fsum) Init(h *udf.Heap) (udf.State, error) { return h.AllocFloats(1) }
func (fsum) Accumulate(s udf.State, args []sqltypes.Value) error {
	f, _ := args[0].Float()
	s.([]float64)[0] += f
	return nil
}
func (fsum) AccumulateFloats(s udf.State, _ []sqltypes.Value, tile []float64, _ int) error {
	for _, x := range tile {
		s.([]float64)[0] += x
	}
	return nil
}
func (fsum) Merge(dst, src udf.State) error {
	dst.([]float64)[0] += src.([]float64)[0]
	return nil
}
func (fsum) Finalize(s udf.State) (sqltypes.Value, error) {
	return sqltypes.NewDouble(s.([]float64)[0]), nil
}

// TestBlockCounterCountsSealedChunks: engine_columnar_blocks_scanned_total
// counts the sealed chunks a scan reads as blocks, not the tail it reads
// as rows. An aggregate over P partitions of c whole chunks and a tail
// moves it by exactly P·c, as a summary rebuild does, and its EXPLAIN
// ANALYZE tree shows source=block for every partition.
func TestBlockCounterCountsSealedChunks(t *testing.T) {
	const P, c, tail = 3, 2, 7
	d := Open(Options{Partitions: P, Dir: t.TempDir()})
	mustExec(t, d, "CREATE TABLE t (a DOUBLE, b DOUBLE)")
	if err := d.Aggregates().Register(fsum{}); err != nil {
		t.Fatal(err)
	}
	tab, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, P*(c*storage.ChunkRows+tail))
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewDouble(float64(i)), sqltypes.NewDouble(0.5)}
	}
	sealed := P * c * storage.ChunkRows
	if err := tab.Insert(rows[:sealed]...); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(rows[sealed:]...); err != nil {
		t.Fatal(err)
	}
	for _, si := range tab.Segments() {
		if si.Rows != c*storage.ChunkRows || si.TailRows != tail {
			t.Fatalf("partition %+v, want %d chunks and a %d-row tail", si, c, tail)
		}
	}
	before := obs.ColumnarBlocksScanned.Value()
	res, err := d.Exec("SELECT fsum(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.ColumnarBlocksScanned.Value() - before; got != P*c {
		t.Fatalf("the aggregate moved engine_columnar_blocks_scanned_total by %d, want P·c = %d", got, P*c)
	}
	tree := res.Stats.Root.RenderTree()
	if n := strings.Count(tree, "source=block"); n != P || strings.Contains(tree, "source=row") || strings.Contains(tree, "source=float") {
		t.Fatalf("EXPLAIN ANALYZE shows source=block %d times, want %d and no other source:\n%s", n, P, tree)
	}
	before = obs.ColumnarBlocksScanned.Value()
	if _, _, err := d.SummaryNLQ(context.Background(), "t", []string{"a", "b"}, core.Triangular); err != nil {
		t.Fatal(err)
	}
	if got := obs.ColumnarBlocksScanned.Value() - before; got != P*c {
		t.Fatalf("a summary rebuild moved engine_columnar_blocks_scanned_total by %d, want %d", got, P*c)
	}
}
