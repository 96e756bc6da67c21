package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

func benchTable(b *testing.B, dims, n int) (*storage.Table, []int) {
	b.Helper()
	tab, ords := benchTableParts(b, dims, 20)
	if err := tab.Insert(benchRows(dims, 0, n)...); err != nil {
		b.Fatal(err)
	}
	if err := tab.EnsureSegments(); err != nil {
		b.Fatal(err)
	}
	return tab, ords
}

// benchTableParts creates an empty on-disk table of an id and dims
// DOUBLE columns, returning it and the DOUBLE columns' ordinals.
func benchTableParts(b *testing.B, dims, parts int) (*storage.Table, []int) {
	b.Helper()
	cols := make([]sqltypes.Column, dims+1)
	cols[0] = icol("id")
	ords := make([]int, dims)
	for i := 0; i < dims; i++ {
		cols[i+1] = dcol("x" + string(rune('A'+i)))
		ords[i] = i + 1
	}
	schema := &sqltypes.Schema{Columns: cols}
	tab, err := storage.NewTable("x", schema, b.TempDir(), parts)
	if err != nil {
		b.Fatal(err)
	}
	return tab, ords
}

// benchRows returns rows [from, from+n) of benchTable's data.
func benchRows(dims, from, n int) []sqltypes.Row {
	rng := rand.New(rand.NewSource(int64(1 + from)))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		r := make(sqltypes.Row, dims+1)
		r[0] = sqltypes.NewBigInt(int64(from + i))
		for j := 0; j < dims; j++ {
			r[j+1] = sqltypes.NewDouble(rng.NormFloat64())
		}
		rows[i] = r
	}
	return rows
}

func benchNLQ(b *testing.B, columnar bool, dims, n int) {
	tab, ords := benchTable(b, dims, n)
	scan, err := PrepareTableNLQ(tab, ords, core.Triangular, 0, columnar)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.Read(context.Background(), nil, make([]*core.NLQ, tab.Partitions())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNLQRow(b *testing.B) { benchNLQ(b, false, 16, 40000) }

// BenchmarkNLQColumnar is the summary scan over segment blocks: at d =
// 16, and at build_columnar's d = 32 and n = 65 536.
func BenchmarkNLQColumnar(b *testing.B) {
	b.Run("d=16", func(b *testing.B) { benchNLQ(b, true, 16, 40000) })
	b.Run("d=32", func(b *testing.B) { benchNLQ(b, true, 32, 65536) })
}

// BenchmarkBlockProjection is build_columnar's projection, SELECT X1 +
// X2 FROM X WHERE X3 > 0, over its table shape (65 536 rows of an id and
// 32 sign-random DOUBLEs, on disk, 4 partitions) from segment blocks,
// streamed to a sink that drops every row: segment reads, the vector
// programs and the emit loop.
func BenchmarkBlockProjection(b *testing.B) {
	const dims, n = 32, 65536
	tab, _ := benchTableParts(b, dims, 4)
	if err := tab.Insert(benchRows(dims, 0, n)...); err != nil {
		b.Fatal(err)
	}
	env := &Env{Catalog: memCatalog{"x": tab}, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: true}
	p, err := PrepareSelect(sel(b, "SELECT xA + xB FROM x WHERE xC > 0"), env)
	if err != nil {
		b.Fatal(err)
	}
	discard := func(sqltypes.Row) error { return nil }
	run := func() *Result {
		res, err := p.Run(context.Background(), nil, discard)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	checkSources(b, run().Stats, "block")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}

// BenchmarkInsertThenNLQ is write-then-read traffic: each op inserts k
// rows into a 32 768 × 32 on-disk table of 4 partitions, build_udf's
// shape, then runs its summary scan from the start — decoding rows
// (row), or reading the sealed chunks as blocks and the tail as float
// rows (block). An insert's op includes the seal whenever the inserts
// have filled a chunk in a partition's tail.
func BenchmarkInsertThenNLQ(b *testing.B) {
	const dims, n = 32, 32768
	for _, k := range []int{8, 1024} {
		for _, columnar := range []bool{false, true} {
			name := fmt.Sprintf("k=%d/row", k)
			if columnar {
				name = fmt.Sprintf("k=%d/block", k)
			}
			b.Run(name, func(b *testing.B) {
				tab, ords := benchTableParts(b, dims, 4)
				if err := tab.Insert(benchRows(dims, 0, n)...); err != nil {
					b.Fatal(err)
				}
				scan, err := PrepareTableNLQ(tab, ords, core.Triangular, 0, columnar)
				if err != nil {
					b.Fatal(err)
				}
				read := func() {
					if _, err := scan.Read(context.Background(), nil, make([]*core.NLQ, tab.Partitions())); err != nil {
						b.Fatal(err)
					}
				}
				read()
				batch := benchRows(dims, n, k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tab.Insert(batch...); err != nil {
						b.Fatal(err)
					}
					read()
				}
			})
		}
	}
}
