package exec

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

// TestBlockScansRaceInserts: a reader alternates a columnar n/L/Q scan
// and a vectorised projection while a writer inserts one batch per
// statement, its commits sealing chunks now and then; every partition
// of every result must be exactly the row-mode result over the prefix
// of the partition it reports scanning, and the fallback counter never
// moves. Run under -race.
func TestBlockScansRaceInserts(t *testing.T) {
	const nparts, batches, batch = 4, 60, 48
	schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a"), dcol("b")}}
	tab, err := storage.NewTable("x", schema, t.TempDir(), nparts)
	if err != nil {
		t.Fatal(err)
	}
	// Row i is (i, f(i)) and lands in partition i mod nparts, so a
	// partition's prefix of k rows is known from k alone.
	rows := make([]sqltypes.Row, batches*batch)
	for i := range rows {
		rows[i] = drow(float64(i), math.Sin(float64(i))*100)
	}
	// The row-mode reference: an in-memory twin fed the same batches,
	// its partials recorded per partition and prefix length (the data
	// has no NULLs, so a partial's N is the rows it covers).
	twin, err := storage.NewTable("x", schema, "", nparts)
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 1}
	ref := make([]map[int64]*core.NLQ, nparts)
	for p := range ref {
		ref[p] = map[int64]*core.NLQ{}
	}
	for j := 0; j < batches; j++ {
		if err := twin.Insert(rows[j*batch : (j+1)*batch]...); err != nil {
			t.Fatal(err)
		}
		parts, _, err := tableNLQ(twin, cols, core.Triangular, false)
		if err != nil {
			t.Fatal(err)
		}
		for p, s := range parts {
			ref[p][int64(s.N)] = s
		}
	}

	const projection = "SELECT a, a + b FROM x"
	rowRes, err := Select(context.Background(), sel(t, projection),
		&Env{Catalog: memCatalog{"x": twin}, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	refSum := make([]uint64, len(rows)) // bits of row i's a + b, row mode
	for _, r := range rowRes.Rows {
		a, _ := r[0].Float()
		sum, _ := r[1].Float()
		refSum[int(a)] = math.Float64bits(sum)
	}

	kick := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for j := 1; j < batches; j++ {
			<-kick
			if err := tab.Insert(rows[j*batch : (j+1)*batch]...); err != nil {
				done <- err
				return
			}
		}
	}()
	if err := tab.Insert(rows[:batch]...); err != nil {
		t.Fatal(err)
	}

	env := &Env{Catalog: memCatalog{"x": tab}, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: true}
	// statement runs one columnar statement beside (at most) one insert
	// and checks that no partition fell back.
	statement := func(run func() (scanned []int64)) {
		t.Helper()
		before := tab.PartitionRowCounts()
		falls := obs.ColumnarFallbacks.Value()
		select {
		case kick <- struct{}{}:
		default:
		}
		scanned := run()
		if got := obs.ColumnarFallbacks.Value() - falls; got != 0 {
			t.Fatalf("%d fallbacks in a statement (rows before %v, scanned %v)", got, before, scanned)
		}
	}
	nlq := func() []int64 {
		parts, seen, err := tableNLQ(tab, cols, core.Triangular, true)
		if err != nil {
			t.Fatal(err)
		}
		scanned := make([]int64, nparts)
		var total int64
		for p, s := range parts {
			scanned[p] = int64(s.N)
			total += scanned[p]
			want := ref[p][scanned[p]]
			if want == nil {
				t.Fatalf("partition %d scanned %d rows: not a batch boundary", p, scanned[p])
			}
			nlqEqual(t, "raced n/L/Q", want, s)
		}
		if total != seen {
			t.Fatalf("partials cover %d rows, scan reports %d", total, seen)
		}
		return scanned
	}
	project := func() []int64 {
		res, err := Select(context.Background(), sel(t, projection), env)
		if err != nil {
			t.Fatal(err)
		}
		scanned := res.Stats.PartitionRows
		got := make([]bool, len(rows))
		for _, r := range res.Rows {
			a, _ := r[0].Float()
			sum, _ := r[1].Float()
			i := int(a)
			if got[i] || int64(i/nparts) >= scanned[i%nparts] || math.Float64bits(sum) != refSum[i] {
				t.Fatalf("row %d = %v: duplicate, beyond partition %d's %d scanned rows, or not the row-mode a + b", i, r, i%nparts, scanned[i%nparts])
			}
			got[i] = true
		}
		var total int64
		for _, k := range scanned {
			total += k
		}
		if int64(len(res.Rows)) != total {
			t.Fatalf("%d rows from a scan of %d", len(res.Rows), total)
		}
		return scanned
	}
	for writing := true; writing; {
		select {
		case err := <-done: // nil once closed
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		statement(nlq)
		statement(project)
	}
	// Quiescent: everything is served from blocks, nothing falls back.
	falls := obs.ColumnarFallbacks.Value()
	for p, k := range nlq() {
		if want := int64(len(rows) / nparts); k != want {
			t.Fatalf("partition %d: %d rows after the writer finished, want %d", p, k, want)
		}
	}
	project()
	if got := obs.ColumnarFallbacks.Value() - falls; got != 0 {
		t.Fatalf("%d fallbacks with no writer", got)
	}
}
