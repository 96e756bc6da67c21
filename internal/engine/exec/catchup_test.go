package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// catchUpRows are rows [from, to) of the catch-up table: DOUBLEs with
// NULLs and a BIGINT.
func catchUpRows(from, to int) []sqltypes.Row {
	rng := rand.New(rand.NewSource(int64(from)))
	rows := make([]sqltypes.Row, 0, to-from)
	for i := from; i < to; i++ {
		r := sqltypes.Row{sqltypes.NewDouble(rng.NormFloat64()), sqltypes.NewDouble(float64(i) / 3), sqltypes.NewBigInt(int64(i % 97))}
		if i%19 == 0 {
			r[0] = sqltypes.Null
		}
		rows = append(rows, r)
	}
	return rows
}

// TestSummaryCatchUpAcrossSeals: a summary read resumed from its marks
// over rows that carried partitions past one or more ChunkRows — written
// by Inserts and by a bulk load — equals, bit for bit, one read from
// the zero marks, with the block source offered and declined.
func TestSummaryCatchUpAcrossSeals(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			schema := &sqltypes.Schema{Columns: []sqltypes.Column{dcol("a"), dcol("b"), icol("j")}}
			tab, err := storage.NewTable("x", schema, t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			cols := []int{0, 1, 2}
			scan, err := PrepareTableNLQ(tab, cols, core.Triangular, 0, columnar)
			if err != nil {
				t.Fatal(err)
			}
			marks := make([]storage.Mark, tab.Partitions())
			parts := make([]*core.NLQ, tab.Partitions())
			n := 0
			write := func(to int, bulk bool) {
				t.Helper()
				rows := catchUpRows(n, to)
				if bulk {
					bl, err := tab.NewBulkLoader()
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rows {
						if err := bl.Add(r); err != nil {
							t.Fatal(err)
						}
					}
					if err := bl.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					for len(rows) > 0 {
						k := min(len(rows), 333)
						if err := tab.Insert(rows[:k]...); err != nil {
							t.Fatal(err)
						}
						rows = rows[k:]
					}
				}
				n = to
			}
			for round, step := range []struct {
				to   int
				bulk bool
			}{{3000, false}, {5200, false}, {5203, false}, {15000, true}, {15500, false}} {
				write(step.to, step.bulk)
				seen, err := scan.Read(context.Background(), marks, parts)
				if err != nil {
					t.Fatal(err)
				}
				fresh, total, err := tableNLQ(tab, cols, core.Triangular, columnar)
				if err != nil {
					t.Fatal(err)
				}
				if total != int64(n) {
					t.Fatalf("round %d: a fresh read saw %d rows, the table holds %d", round, total, n)
				}
				if round == 0 && seen != int64(n) {
					t.Fatalf("round %d: the first read saw %d rows of %d", round, seen, n)
				}
				for p := range parts {
					if marks[p].Rows != tab.PartitionRowCounts()[p] {
						t.Fatalf("round %d: partition %d mark at %d of %d rows", round, p, marks[p].Rows, tab.PartitionRowCounts()[p])
					}
					nlqEqual(t, fmt.Sprintf("round %d partition %d", round, p), fresh[p], parts[p])
				}
			}
		})
	}
}
