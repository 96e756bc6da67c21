package exec

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

func benchTable(b *testing.B, dims, n int) (*storage.Table, []int) {
	b.Helper()
	cols := make([]sqltypes.Column, dims+1)
	cols[0] = icol("id")
	ords := make([]int, dims)
	for i := 0; i < dims; i++ {
		cols[i+1] = dcol("x" + string(rune('A'+i)))
		ords[i] = i + 1
	}
	schema := &sqltypes.Schema{Columns: cols}
	tab, err := storage.NewTable("x", schema, b.TempDir(), 20)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		r := make(sqltypes.Row, dims+1)
		r[0] = sqltypes.NewBigInt(int64(i))
		for j := 0; j < dims; j++ {
			r[j+1] = sqltypes.NewDouble(rng.NormFloat64())
		}
		rows[i] = r
	}
	if err := tab.Insert(rows...); err != nil {
		b.Fatal(err)
	}
	if err := tab.EnsureSegments(); err != nil {
		b.Fatal(err)
	}
	return tab, ords
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
