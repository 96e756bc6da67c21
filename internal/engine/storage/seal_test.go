package storage

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine/sqltypes"
)

// sealRow is row i of the writes below: NULLs in every column at
// different strides, a BIGINT beyond ±2⁵³ now and then, VARCHARs of
// several lengths.
func sealRow(i int) sqltypes.Row {
	r := row(int64(i)*7-300, float64(i)*0.5-11, fmt.Sprintf("v%0*d", i%9, i))
	switch {
	case i%11 == 0:
		r[0] = sqltypes.Null
	case i%13 == 0:
		r[1] = sqltypes.Null
	case i%17 == 0:
		r[2] = sqltypes.Null
	case i%29 == 0:
		r[0] = sqltypes.NewBigInt(math.MaxInt64 - int64(i))
	case i%31 == 0:
		r[1] = sqltypes.NewDouble(math.Inf(-1))
	}
	return r
}

// sealWrites writes rows [from, to) of sealRow to tab the ways the
// engine writes — one Insert per row, one Insert of many, one bulk load
// — cycling through them in steps of step rows.
func sealWrites(t *testing.T, tab *Table, from, to, step int) {
	t.Helper()
	for at, way := from, 0; at < to; way++ {
		end := min(at+step, to)
		switch way % 3 {
		case 0:
			for i := at; i < end; i++ {
				if err := tab.Insert(sealRow(i)); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			rows := make([]sqltypes.Row, 0, end-at)
			for i := at; i < end; i++ {
				rows = append(rows, sealRow(i))
			}
			if err := tab.Insert(rows...); err != nil {
				t.Fatal(err)
			}
		case 2:
			bl, err := tab.NewBulkLoader()
			if err != nil {
				t.Fatal(err)
			}
			for i := at; i < end; i++ {
				if err := bl.Add(sealRow(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := bl.Close(); err != nil {
				t.Fatal(err)
			}
		}
		at = end
	}
}

// wantRows checks that every partition of tab holds exactly its share
// of sealRow(0..n-1), in order: row i in partition i mod P.
func wantRows(t *testing.T, tab *Table, n int, what string) {
	t.Helper()
	parts := tab.Partitions()
	for p := 0; p < parts; p++ {
		got, st, err := rowScan(context.Background(), tab, p)
		if err != nil {
			t.Fatalf("%s: partition %d: %v", what, p, err)
		}
		want := (n - p + parts - 1) / parts
		if len(got) != want || st.Rows != int64(want) || st.End.Rows != int64(want) {
			t.Fatalf("%s: partition %d holds %d rows (stats %+v), want %d", what, p, len(got), st, want)
		}
		for k, r := range got {
			if i := k*parts + p; !sameRow(r, sealRow(i)) {
				t.Fatalf("%s: partition %d row %d is %v, want row %d %v", what, p, k, r, i, sealRow(i))
			}
		}
	}
}

// TestReopenAfterWritesKeepsEveryRow: Inserts of one row and of many
// and bulk loads that carry each partition past several ChunkRows
// leave every row in place, in order, exactly once, and a table
// reattached to the same directory reads the same rows.
func TestReopenAfterWritesKeepsEveryRow(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, step := range []int{700, 2500, 3} {
		next := n + 3*step + 1000
		sealWrites(t, tab, n, next, step)
		n = next
		wantRows(t, tab, n, fmt.Sprintf("after %d rows", n))
		re, err := OpenTable("x", testSchema(), dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, re, n, fmt.Sprintf("reopened after %d rows", n))
	}
}

// TestConsumersAgreeAcrossSeals: over partitions that writes carried
// past several ChunkRows, the float decode and the block scan deliver
// what the row scan does, bit for bit.
func TestConsumersAgreeAcrossSeals(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sealWrites(t, tab, 0, 3*ChunkRows+555, 1234)
	for _, cols := range [][]int{{0, 1}, {1}, {2, 0}, {1, 0, 2}, nil} {
		floatsMatchRows(t, tab, cols)
	}
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{0, 1}, {1}, {2, 0}, {1, 0, 2}} {
		blocksMatchRows(t, tab, cols)
		floatsMatchRows(t, tab, cols)
	}
}

// partitionFiles reads every file of tab's directory, by name.
func partitionFiles(t *testing.T, tab *Table) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(tab.dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(tab.dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestSealFaultsKeepEveryRowOnce: a seal that stops half-way through a
// chunk, or after appending its chunks but before replacing the row
// log — where a crash could stop it — leaves the write committed and
// every row readable exactly once, in order, in this process and in a
// table reattached to the files as the seal left them; the next commit
// seals over what it left.
func TestSealFaultsKeepEveryRowOnce(t *testing.T) {
	for _, fault := range []Fault{{Partition: 0, SealMidChunk: true}, {Partition: -1, SealBeforeTail: true}} {
		t.Run(fmt.Sprintf("%+v", fault), func(t *testing.T) {
			dir := t.TempDir()
			tab, err := NewTable("x", testSchema(), dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for round, to := range []int{ChunkRows + 300, 3*ChunkRows + 10} {
				tab.SetFault(&fault)
				sealWrites(t, tab, n, to, to-n) // one Insert per row, then one of many
				tab.SetFault(nil)
				n = to
				before := tab.Segments()[0]
				if want := int64(round * 2 * ChunkRows); before.Rows != want {
					t.Fatalf("round %d: the faulted seal moved the sealed rows to %d, want %d", round, before.Rows, want)
				}
				wantRows(t, tab, n, fmt.Sprintf("round %d, after the fault", round))
				re := reopen(t, tab)
				wantRows(t, re, n, fmt.Sprintf("round %d, reattached after the fault", round))
				if si := re.Segments()[0]; si != before {
					t.Fatalf("round %d: reattached as %+v, want %+v", round, si, before)
				}
				blocksMatchRows(t, re, []int{0, 1})
				// The next write seals over the bytes the fault left: in
				// the faulted process, then in one that attached after it.
				if round == 1 {
					tab = re
				}
				sealed := before.Rows
				sealWrites(t, tab, n, n+ChunkRows, ChunkRows)
				n += ChunkRows
				if si := tab.Segments()[0]; si.Rows < sealed+ChunkRows || si.TailRows >= ChunkRows {
					t.Fatalf("round %d: the write after the fault left %+v", round, si)
				}
				wantRows(t, tab, n, fmt.Sprintf("round %d, sealed after the fault", round))
				wantRows(t, reopen(t, tab), n, fmt.Sprintf("round %d, reattached after the seal", round))
				tab = reopen(t, tab)
			}
		})
	}
}

// TestRolledBackWriteLeavesFilesAlone: an Insert and a bulk load that
// fail — and would have sealed chunks had they committed — leave every
// `.seg` and `.dat` byte for byte as they were.
func TestRolledBackWriteLeavesFilesAlone(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sealWrites(t, tab, 0, 2*ChunkRows+900, 2*ChunkRows+900)
	before := partitionFiles(t, tab)
	if tab.Segments()[0].Rows == 0 {
		t.Fatal("the fixture sealed nothing")
	}
	tab.SetFault(&Fault{Partition: 1, FlushClose: true})
	rows := make([]sqltypes.Row, 2*ChunkRows)
	for i := range rows {
		rows[i] = sealRow(i)
	}
	if err := tab.Insert(rows...); err == nil {
		t.Fatal("faulted insert succeeded")
	}
	bl, err := tab.NewBulkLoader()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := bl.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bl.Close(); err == nil {
		t.Fatal("faulted bulk load succeeded")
	}
	tab.SetFault(nil)
	if after := partitionFiles(t, tab); !reflect.DeepEqual(after, before) {
		t.Fatal("a rolled-back write changed the partition files")
	}
	wantRows(t, tab, 2*ChunkRows+900, "after the rolled-back writes")
}
