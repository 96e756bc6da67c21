package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

// fsum is sum(x) with a float body: the float-row source serves only
// aggregates whose every spec has one.
type fsum struct{}

func (fsum) Name() string { return "fsum" }
func (fsum) CheckArgs(n int) error {
	if n != 1 {
		return fmt.Errorf("fsum takes one argument, got %d", n)
	}
	return nil
}
func (fsum) Init(h *udf.Heap) (udf.State, error) { return h.AllocFloats(1) }
func (fsum) Accumulate(s udf.State, args []sqltypes.Value) error {
	if f, ok := args[0].Float(); ok {
		s.([]float64)[0] += f
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
func (fsum) LeadArgs() int { return 0 }
func (fsum) AccumulateFloats(s udf.State, _ []sqltypes.Value, tile []float64, _ int) error {
	for _, x := range tile {
		s.([]float64)[0] += x
	}
	return nil
}

// batchSources are the three scan sources with a statement each takes:
// the projection from the row log and from segment blocks, and a
// float-bodied aggregate from the row log's float decode.
var batchSources = []struct {
	source, sql string
	columnar    bool
	agg         bool
}{
	{"row", "SELECT a * 2 FROM x", false, false},
	{"block", "SELECT a * 2 FROM x", true, false},
	{"float", "SELECT fsum(a) FROM x", false, true},
}

// batchEnv is an on-disk table x(a DOUBLE) of two partitions holding n
// rows each, a = 0, 1, 2, ... placed round-robin, and an empty table y
// in memory for INSERT ... SELECT.
func batchEnv(t *testing.T, n, workers int, columnar bool) (*Env, *storage.Table) {
	t.Helper()
	x, err := storage.NewTable("x", &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a")}}, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 2*n)
	for i := range rows {
		rows[i] = drow(float64(i))
	}
	if err := x.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	y, err := storage.NewTable("y", &sqltypes.Schema{Columns: []sqltypes.Column{dcol("b")}}, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	aggs := udf.NewRegistry()
	if err := aggs.Register(fsum{}); err != nil {
		t.Fatal(err)
	}
	return &Env{Catalog: memCatalog{"x": x, "y": y}, Funcs: expr.NewRegistry(), Aggs: aggs, Workers: workers, Columnar: columnar}, y
}

// checkSources fails unless every partition scan ran from want.
func checkSources(t testing.TB, st *Stats, want string) {
	t.Helper()
	for _, sp := range st.Root.SpanByName("scan").Children {
		if sp.Name != "ensure" && sp.Source != want {
			t.Fatalf("%s ran from the %s source, want %s", sp.Name, sp.Source, want)
		}
	}
}

// TestBatchDeliveryExact: at partition sizes around the batch size, from
// every source, the per-row stream, the collector behind a materializing Run
// and INSERT ... SELECT each see every row once, with its value, and
// RowsEmitted counts exactly the rows delivered.
func TestBatchDeliveryExact(t *testing.T) {
	for _, src := range batchSources {
		for _, n := range []int{0, 1, 63, 64, 65, 4097} {
			t.Run(fmt.Sprintf("%s/%d", src.source, n), func(t *testing.T) {
				env, y := batchEnv(t, n, 0, src.columnar)
				// a * 2 over a = 0 .. 2n-1, or the one fsum row.
				wantRows, wantSum := int64(2*n), float64(2*n)*float64(2*n-1)
				if src.agg {
					wantRows, wantSum = 1, float64(2*n)*float64(2*n-1)/2
				}
				p, err := PrepareSelect(sel(t, src.sql), env)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var streamed int64
				var sum float64
				streamRes, err := p.Run(context.Background(), nil, func(r sqltypes.Row) error {
					mu.Lock()
					defer mu.Unlock()
					streamed++
					sum += r[0].MustFloat()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				st := streamRes.Stats
				if streamed != wantRows || st.RowsEmitted != wantRows || sum != wantSum {
					t.Fatalf("streamed %d rows summing to %g, RowsEmitted %d; want %d rows summing to %g", streamed, sum, st.RowsEmitted, wantRows, wantSum)
				}
				if n > 0 {
					checkSources(t, st, src.source)
				}

				res, err := p.Run(context.Background(), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				sum = 0
				for _, r := range res.Rows {
					sum += r[0].MustFloat()
				}
				if int64(len(res.Rows)) != wantRows || res.Stats.RowsEmitted != wantRows || sum != wantSum {
					t.Fatalf("collected %d rows summing to %g, RowsEmitted %d; want %d rows summing to %g", len(res.Rows), sum, res.Stats.RowsEmitted, wantRows, wantSum)
				}

				ins, err := sqlparser.Parse("INSERT INTO y " + src.sql)
				if err != nil {
					t.Fatal(err)
				}
				res, err = Insert(context.Background(), ins.(*sqlparser.Insert), env)
				if err != nil {
					t.Fatal(err)
				}
				if res.Affected != wantRows || y.NumRows() != wantRows {
					t.Fatalf("INSERT ... SELECT affected %d rows, y holds %d; want %d", res.Affected, y.NumRows(), wantRows)
				}
			})
		}
	}
}

// TestBatchSinkErrorStopsScan: a sink that refuses a row in the middle
// of a batch fails the statement with its error, RowsEmitted counts the
// rows it accepted, and the scan stops — with one worker, the second
// partition never starts.
func TestBatchSinkErrorStopsScan(t *testing.T) {
	errFull := errors.New("sink full")
	for _, src := range batchSources {
		for _, n := range []int{1, 63, 64, 65, 4097} {
			// Refuse the first row, one in the middle of the first batch,
			// and one in the middle of the second.
			for _, limit := range []int64{0, batchRows / 2, batchRows + batchRows/2} {
				if limit >= int64(n) || (src.agg && limit > 0) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%d/after%d", src.source, n, limit), func(t *testing.T) {
					env, _ := batchEnv(t, n, 1, src.columnar)
					p, err := PrepareSelect(sel(t, src.sql), env)
					if err != nil {
						t.Fatal(err)
					}
					var accepted int64
					res, err := p.Run(context.Background(), nil, func(sqltypes.Row) error {
						if accepted == limit {
							return errFull
						}
						accepted++
						return nil
					})
					st := res.Stats
					if !errors.Is(err, errFull) {
						t.Fatalf("err = %v, want the sink's", err)
					}
					if st.RowsEmitted != accepted {
						t.Fatalf("RowsEmitted = %d, the sink accepted %d", st.RowsEmitted, accepted)
					}
					if !src.agg && st.RowsScanned > int64(n) {
						t.Fatalf("scanned %d rows after the first partition failed (%d per partition)", st.RowsScanned, n)
					}
				})
			}
		}
	}
}

// TestBatchDeliveryDoesNotAllocatePerRow streams the projection to a
// sink that keeps nothing, and runs INSERT ... SELECT into an on-disk
// table, over partitions of 2 000 and of 16 000 rows: the batch is the
// worker's and the insert's row is the statement's, so a statement
// allocates the same whatever it scans.
func TestBatchDeliveryDoesNotAllocatePerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector (sync.Pool drops items)")
	}
	for _, src := range batchSources[:2] {
		allocs := func(n int) (stream, insert float64) {
			env, _ := batchEnv(t, n, 0, src.columnar)
			cat := env.Catalog.(memCatalog)
			y, err := storage.NewTable("y", &sqltypes.Schema{Columns: []sqltypes.Column{dcol("b")}}, t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			cat["y"] = y
			p, err := PrepareSelect(sel(t, src.sql), env)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := p.Run(context.Background(), nil, func(sqltypes.Row) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			run()
			stream = testing.AllocsPerRun(5, run)
			ins, err := sqlparser.Parse("INSERT INTO y " + src.sql)
			if err != nil {
				t.Fatal(err)
			}
			insert = testing.AllocsPerRun(5, func() {
				if _, err := Insert(context.Background(), ins.(*sqlparser.Insert), env); err != nil {
					t.Fatal(err)
				}
			})
			return stream, insert
		}
		smallStream, smallInsert := allocs(2000)
		largeStream, largeInsert := allocs(16000)
		// The slack covers pool refills after a GC, not rows: one
		// allocation per row would be 28 000 apart.
		if math.Abs(largeStream-smallStream) > 50 || math.Abs(largeInsert-smallInsert) > 50 {
			t.Fatalf("%s: stream %v → %v, insert %v → %v allocations from 4 000 to 32 000 rows", src.source, smallStream, largeStream, smallInsert, largeInsert)
		}
		t.Logf("%s: allocations per statement: stream %v / %v, insert %v / %v at 4 000 / 32 000 rows", src.source, smallStream, largeStream, smallInsert, largeInsert)
	}
}
