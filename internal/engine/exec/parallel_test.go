package exec

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

func TestRunParallelPanicRecovered(t *testing.T) {
	err := RunParallel(context.Background(), 0, 4, func(ctx context.Context, p int) error {
		if p == 2 {
			panic("udf went boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic in partition 2") ||
		!strings.Contains(err.Error(), "udf went boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// Single-partition fast path takes a different code path.
	err = RunParallel(context.Background(), 1, 1, func(ctx context.Context, p int) error {
		panic("solo boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panic in partition 0") {
		t.Fatalf("single-partition panic not converted: %v", err)
	}
}

func TestRunParallelWorkerBound(t *testing.T) {
	const workers, n = 3, 24
	var cur, peak, ran atomic.Int64
	err := RunParallel(context.Background(), workers, n, func(ctx context.Context, p int) error {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		ran.Add(1)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d partitions, want %d", ran.Load(), n)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent workers, bound is %d", p, workers)
	}
}

func TestRunParallelFirstErrorCancelsSiblings(t *testing.T) {
	const workers, n = 4, 8
	sentinel := errors.New("partition exploded")
	var started atomic.Int64
	err := RunParallel(context.Background(), workers, n, func(ctx context.Context, p int) error {
		started.Add(1)
		if p == 0 {
			// Let the sibling workers claim their partitions first so the
			// cancellation demonstrably reaches in-flight scans.
			for started.Load() < workers {
			}
			return sentinel
		}
		<-ctx.Done() // a sibling mid-scan observes the cancellation
		return ctx.Err()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want first error %v, got %v", sentinel, err)
	}
	// Workers stop claiming after the failure: partitions 4..7 never ran.
	if got := started.Load(); got != workers {
		t.Fatalf("%d partitions started, want only the first %d", got, workers)
	}
}

func TestRunParallelOutsideCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := RunParallel(ctx, 2, 8, func(ctx context.Context, p int) error {
		ran.Add(1)
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() > 2 {
		t.Fatalf("%d partitions ran under a cancelled context", ran.Load())
	}
}

// TestRunParallelCallerIsFirstWorker: the calling goroutine runs the
// claim loop itself, so width 1 starts no goroutine and width 2 one.
func TestRunParallelCallerIsFirstWorker(t *testing.T) {
	for _, width := range []int{1, 2} {
		before := runtime.NumGoroutine()
		var peak atomic.Int64
		err := RunParallel(context.Background(), width, 4, func(ctx context.Context, p int) error {
			g := int64(runtime.NumGoroutine())
			for old := peak.Load(); g > old && !peak.CompareAndSwap(old, g); old = peak.Load() {
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if extra := int(peak.Load()) - before; extra > width-1 {
			t.Fatalf("width %d: %d goroutines during the call, %d before; want at most %d more", width, peak.Load(), before, width-1)
		}
	}
}

// TestRunParallelCallerPath covers RunParallel at width 1, where the
// caller alone runs every partition: in order, with a panic contained
// and the first error ending the call before the partitions after it.
func TestRunParallelCallerPath(t *testing.T) {
	var order []int
	if err := RunParallel(context.Background(), 1, 5, func(ctx context.Context, p int) error {
		order = append(order, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("width 1 ran partitions %v, want 0..4 in order", order)
	}

	order = order[:0]
	err := RunParallel(context.Background(), 1, 5, func(ctx context.Context, p int) error {
		order = append(order, p)
		if p == 2 {
			panic("caller boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic in partition 2") || !strings.Contains(err.Error(), "caller boom") {
		t.Fatalf("panic on the calling goroutine not converted: %v", err)
	}
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("after a panic in partition 2, ran %v", order)
	}

	sentinel := errors.New("partition 1 failed")
	order = order[:0]
	err = RunParallel(context.Background(), 1, 5, func(ctx context.Context, p int) error {
		order = append(order, p)
		if p == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want %v, got %v", sentinel, err)
	}
	if !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("after partition 1 failed, ran %v", order)
	}
}

// BenchmarkRunParallel prices one fan-out over four no-op partitions:
// width 1 runs them on the caller, width 4 starts three goroutines.
func BenchmarkRunParallel(b *testing.B) {
	noop := func(context.Context, int) error { return nil }
	for _, width := range []int{1, 4} {
		b.Run("width="+strconv.Itoa(width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := RunParallel(context.Background(), width, 4, noop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// xTable builds an in-memory table of n rows (column x DOUBLE) over
// nparts partitions.
func xTable(t *testing.T, cat memCatalog, name string, nparts int, n int64) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable(name, &sqltypes.Schema{Columns: []sqltypes.Column{dcol("x")}}, "", nparts)
	if err != nil {
		t.Fatal(err)
	}
	appendX(t, tab, n)
	cat[name] = tab
	return tab
}

func appendX(t *testing.T, tab *storage.Table, n int64) {
	t.Helper()
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = drow(float64(i))
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

// TestScanWidth pins Stats.Workers: one worker per storage.ChunkRows
// rows read, at most one per partition and at most Env.Workers.
func TestScanWidth(t *testing.T) {
	const nparts = 4
	const chunk = storage.ChunkRows
	cases := []struct {
		rows          int64
		workers, want int
	}{
		{0, 0, 1}, {1, 0, 1}, {chunk - 1, 0, 1}, {chunk, 0, 1},
		{chunk + 1, 0, 2}, {2 * chunk, 0, 2}, {nparts*chunk + 1, 0, nparts},
		{0, 3, 1}, {1, 3, 1}, {chunk - 1, 3, 1}, {chunk, 3, 1},
		{chunk + 1, 3, 2}, {2 * chunk, 3, 2}, {nparts*chunk + 1, 3, 3},
		{nparts*chunk + 1, 1, 1}, {chunk + 1, 1, 1},
	}
	for _, tc := range cases {
		env, cat := testEnv(t)
		env.Workers = tc.workers
		xTable(t, cat, "t", nparts, tc.rows)
		res, err := Select(context.Background(), sel(t, "SELECT sum(x) FROM t"), env)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.Workers != tc.want || st.RowsScanned != tc.rows {
			t.Errorf("%d rows, Env.Workers %d: Workers = %d (scanned %d), want %d", tc.rows, tc.workers, st.Workers, st.RowsScanned, tc.want)
		}
	}
}

// TestScanWidthResumed: a scan resumed from marks is as wide as the rows
// after the marks, so a summary catch-up over a few appended rows runs
// on one worker.
func TestScanWidthResumed(t *testing.T) {
	const nparts = 4
	tab := xTable(t, memCatalog{}, "t", nparts, nparts*storage.ChunkRows+1)
	scan, err := PrepareTableNLQ(tab, []int{0}, core.Triangular, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	marks := make([]storage.Mark, nparts)
	groups := make([]map[string]*groupState, nparts)
	read := func(wantRows int64, wantWorkers int) {
		t.Helper()
		var st Stats
		if err := scan.p.scan(context.Background(), nil, nil, &st, nil, nil, groups, marks); err != nil {
			t.Fatal(err)
		}
		if st.RowsScanned != wantRows || st.Workers != wantWorkers {
			t.Fatalf("resumed scan read %d rows on %d workers, want %d on %d", st.RowsScanned, st.Workers, wantRows, wantWorkers)
		}
	}
	read(nparts*storage.ChunkRows+1, nparts)
	appendX(t, tab, 10)
	read(10, 1)
	appendX(t, tab, storage.ChunkRows+1)
	read(storage.ChunkRows+1, 2)
	read(0, 1)
}

// multiTable builds an in-memory table with nparts partitions holding
// rowsPerPart rows each (column x DOUBLE, round-robin placement).
func multiTable(t *testing.T, cat memCatalog, name string, nparts, rowsPerPart int) *storage.Table {
	t.Helper()
	return xTable(t, cat, name, nparts, int64(nparts*rowsPerPart))
}

func TestScanFaultCancelsSiblingsSequential(t *testing.T) {
	env, cat := testEnv(t)
	env.Workers = 1 // sequential: partitions run in order 0,1,2,...
	tab := multiTable(t, cat, "t", 4, 100)
	tab.SetFault(&storage.Fault{Partition: 0, ScanAfterRows: 10})
	tab.ResetScannedRows()

	_, err := Select(context.Background(), sel(t, "SELECT x FROM t"), env)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("want injected fault, got %v", err)
	}
	// With one worker the failure on partition 0 must stop the query
	// before any sibling partition is opened: exactly the 10 rows the
	// fault allowed were scanned, not 10 + 3*100.
	if got := tab.ScannedRows(); got != 10 {
		t.Fatalf("scanned %d rows after partition-0 failure, want exactly 10", got)
	}
}

func TestScanFaultCancelsSiblingsConcurrent(t *testing.T) {
	env, cat := testEnv(t)
	const nparts, perPart = 8, 2000
	tab := multiTable(t, cat, "t", nparts, perPart)
	tab.SetFault(&storage.Fault{Partition: 0, ScanAfterRows: 10})
	tab.ResetScannedRows()

	res, err := Select(context.Background(), sel(t, "SELECT x FROM t"), env)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("want injected fault, got %v", err)
	}
	// Without cancellation every sibling runs to completion and the
	// counter reads 10 + 7*2000 = 14010. With it, each in-flight scan
	// stops within its next 64-row cancellation check. Allow a generous
	// margin for scheduling skew.
	total := int64(10 + (nparts-1)*perPart)
	// 16 000 rows are 8 chunks: every partition has its own worker, so
	// the siblings really run beside the failing one.
	if res == nil || res.Stats == nil || res.Stats.Workers != nparts {
		t.Fatalf("scan width %+v, want %d workers", res, nparts)
	}
	if got := tab.ScannedRows(); got >= total/2 {
		t.Fatalf("scanned %d of %d rows; siblings were not cancelled early", got, total)
	}
}

func TestScalarUDFPanicContained(t *testing.T) {
	env, cat := testEnv(t)
	multiTable(t, cat, "t", 2, 5)
	if err := env.Funcs.Register(expr.FuncDef{Name: "boom", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
			if v, _ := args[0].Float(); v >= 6 {
				panic("scalar udf bug")
			}
			return args[0], nil
		}}); err != nil {
		t.Fatal(err)
	}
	_, err := Select(context.Background(), sel(t, "SELECT boom(x) FROM t"), env)
	if err == nil || !strings.Contains(err.Error(), "panic in partition") ||
		!strings.Contains(err.Error(), "scalar udf bug") {
		t.Fatalf("panicking scalar UDF should fail the query, got %v", err)
	}
	// The engine survives: the same env still runs clean queries.
	res, err := Select(context.Background(), sel(t, "SELECT x FROM t"), env)
	if err != nil || len(res.Rows) != 10 {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
}

func TestScalarUDFErrorPropagates(t *testing.T) {
	env, cat := testEnv(t)
	multiTable(t, cat, "t", 2, 50) // row value 37 lives at row 18 of partition 1
	failErr := errors.New("scalar udf rejected value 37")
	if err := env.Funcs.Register(expr.FuncDef{Name: "picky", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
			if v, _ := args[0].Float(); v == 37 {
				return sqltypes.Value{}, failErr
			}
			return args[0], nil
		}}); err != nil {
		t.Fatal(err)
	}
	_, err := Select(context.Background(), sel(t, "SELECT picky(x) FROM t"), env)
	if !errors.Is(err, failErr) {
		t.Fatalf("want the UDF's own error, got %v", err)
	}
}

// failAgg is a minimal sum-like aggregate UDF whose phases can be made
// to fail or panic on demand.
type failAgg struct {
	accErr, mergeErr, finalErr error
	panicIn                    string // "accumulate", "merge" or "finalize"
}

func (a *failAgg) Name() string              { return "failagg" }
func (a *failAgg) CheckArgs(nargs int) error { return nil }
func (a *failAgg) Init(h *udf.Heap) (udf.State, error) {
	if err := h.Alloc(8); err != nil {
		return nil, err
	}
	return new(float64), nil
}
func (a *failAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	if a.panicIn == "accumulate" {
		panic("accumulate boom")
	}
	if a.accErr != nil {
		return a.accErr
	}
	v, _ := args[0].Float()
	*(s.(*float64)) += v
	return nil
}
func (a *failAgg) Merge(dst, src udf.State) error {
	if a.panicIn == "merge" {
		panic("merge boom")
	}
	if a.mergeErr != nil {
		return a.mergeErr
	}
	*(dst.(*float64)) += *(src.(*float64))
	return nil
}
func (a *failAgg) Finalize(s udf.State) (sqltypes.Value, error) {
	if a.panicIn == "finalize" {
		panic("finalize boom")
	}
	if a.finalErr != nil {
		return sqltypes.Value{}, a.finalErr
	}
	return sqltypes.NewDouble(*(s.(*float64))), nil
}

func TestAggregateUDFPhaseFailures(t *testing.T) {
	cases := []struct {
		name string
		agg  *failAgg
		want string
	}{
		{"accumulate error", &failAgg{accErr: errors.New("phase 2 failed")}, "phase 2 failed"},
		{"merge error", &failAgg{mergeErr: errors.New("phase 3 failed")}, "phase 3 failed"},
		{"finalize error", &failAgg{finalErr: errors.New("phase 4 failed")}, "phase 4 failed"},
		{"accumulate panic", &failAgg{panicIn: "accumulate"}, "panic in partition"},
		{"merge panic", &failAgg{panicIn: "merge"}, "panic during aggregation"},
		{"finalize panic", &failAgg{panicIn: "finalize"}, "panic during aggregation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, cat := testEnv(t)
			// Two partitions, both non-empty, so the global aggregate's
			// group exists in each and Merge (phase 3) really runs.
			multiTable(t, cat, "t", 2, 4)
			if err := env.Aggs.Register(tc.agg); err != nil {
				t.Fatal(err)
			}
			_, err := Select(context.Background(), sel(t, "SELECT failagg(x) FROM t"), env)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	// Control: the same UDF with no failure armed works end to end.
	env, cat := testEnv(t)
	multiTable(t, cat, "t", 2, 4) // x = 0..7, sum 28
	if err := env.Aggs.Register(&failAgg{}); err != nil {
		t.Fatal(err)
	}
	res, err := Select(context.Background(), sel(t, "SELECT failagg(x) FROM t"), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].MustFloat(); got != 28 {
		t.Fatalf("control sum = %v, want 28", got)
	}
}

func TestQueryStats(t *testing.T) {
	env, cat := testEnv(t)
	tab, err := storage.NewTable("t", &sqltypes.Schema{Columns: []sqltypes.Column{dcol("x")}}, t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four chunks of rows, so the scan's width is Env.Workers, not the
	// one worker per chunk a smaller table gets (checked at the end).
	const n = 4 * storage.ChunkRows
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = drow(float64(i))
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	cat["t"] = tab
	env.Workers = 2

	res, err := Select(context.Background(), sel(t, "SELECT x FROM t WHERE x < 40"), env)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("projection result has no stats")
	}
	if st.RowsScanned != n {
		t.Fatalf("RowsScanned = %d, want %d", st.RowsScanned, n)
	}
	if st.RowsEmitted != 40 || len(res.Rows) != 40 {
		t.Fatalf("RowsEmitted = %d (%d rows), want 40", st.RowsEmitted, len(res.Rows))
	}
	if st.Partitions != 4 || len(st.PartitionRows) != 4 {
		t.Fatalf("Partitions = %d (%d slots)", st.Partitions, len(st.PartitionRows))
	}
	var sum int64
	for _, c := range st.PartitionRows {
		sum += c
	}
	if sum != st.RowsScanned {
		t.Fatalf("per-partition rows sum to %d, RowsScanned = %d", sum, st.RowsScanned)
	}
	if st.BytesRead <= 0 {
		t.Fatalf("BytesRead = %d for an on-disk scan", st.BytesRead)
	}
	if st.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", st.Workers)
	}
	if st.Skew() != 1 { // 2048 rows in each of 4 partitions
		t.Fatalf("Skew = %v for a balanced table", st.Skew())
	}
	if st.Total <= 0 || st.Scan <= 0 {
		t.Fatalf("phase times not recorded: total %v scan %v", st.Total, st.Scan)
	}
	if s := st.String(); !strings.Contains(s, "scanned 8192 rows") {
		t.Fatalf("stats render missing scan count: %q", s)
	}

	// Aggregates record the merge/finalize phases too.
	res, err = Select(context.Background(), sel(t, "SELECT sum(x) FROM t"), env)
	if err != nil {
		t.Fatal(err)
	}
	st = res.Stats
	if st == nil || st.RowsScanned != n || st.RowsEmitted != 1 {
		t.Fatalf("aggregate stats wrong: %+v", st)
	}
	if st.Finalize < 0 || st.Merge < 0 || st.Total < st.Scan {
		t.Fatalf("aggregate phase times inconsistent: %+v", st)
	}

	// 100 rows are less than a chunk: one worker, the caller, however
	// many partitions and Env.Workers allow.
	multiTable(t, cat, "small", 4, 25)
	res, err = Select(context.Background(), sel(t, "SELECT x FROM small WHERE x < 40"), env)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Workers != 1 || st.RowsScanned != 100 || len(res.Rows) != 40 {
		t.Fatalf("small table: Workers = %d, RowsScanned = %d, %d rows; want 1, 100, 40", st.Workers, st.RowsScanned, len(res.Rows))
	}
}

func TestSelectContextCancelled(t *testing.T) {
	env, cat := testEnv(t)
	multiTable(t, cat, "t", 4, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Select(ctx, sel(t, "SELECT x FROM t"), env); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
