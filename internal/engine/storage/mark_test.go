package storage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

// resume float-scans every partition of tab after its mark in from (nil:
// from the start) and returns the ids of the rows each delivered, in
// order, and the marks where the scans ended.
func resume(t *testing.T, tab *Table, from []Mark) (ids [][]int64, ends []Mark) {
	t.Helper()
	ids = make([][]int64, tab.Partitions())
	ends = make([]Mark, tab.Partitions())
	for p := range ids {
		var m Mark
		if from != nil {
			m = from[p]
		}
		st, err := tab.ScanPartitionRead(context.Background(), p, Read{From: m, Cols: []int{0}, Floats: func(x []float64) error {
			ids[p] = append(ids[p], int64(x[0]))
			return nil
		}, Rows: func(r sqltypes.Row) error {
			ids[p] = append(ids[p], r[0].Int())
			return nil
		}})
		if err != nil {
			t.Fatalf("partition %d after %+v: %v", p, m, err)
		}
		if st.Rows != int64(len(ids[p])) {
			t.Fatalf("partition %d: stats say %d rows, %d delivered", p, st.Rows, len(ids[p]))
		}
		ends[p] = st.End
	}
	return ids, ends
}

// TestScanResumesAfterInsertsAndBulkLoads: a scan resumed from the marks
// an earlier scan ended at delivers exactly the rows appended since — by
// Insert or by a bulk load, in memory and on disk — in the order a whole
// scan delivers them, and its marks are the whole scan's. Appends leave
// the epoch; a truncate moves it, and the old marks no longer resume.
func TestScanResumesAfterInsertsAndBulkLoads(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			tab, err := NewTable("x", testSchema(), dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, tab, 7)
			_, marks := resume(t, tab, nil)
			epoch := tab.Epoch()
			for batch := 0; batch < 3; batch++ {
				bl, err := tab.NewBulkLoader()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					if err := bl.Add(row(int64(100*(batch+1)+i), float64(i), strings.Repeat("b", i))); err != nil {
						t.Fatal(err)
					}
				}
				if err := bl.Close(); err != nil {
					t.Fatal(err)
				}
				if err := tab.Insert(row(int64(1000+batch), 1, "one")); err != nil {
					t.Fatal(err)
				}
				whole, wholeEnds := resume(t, tab, nil)
				tail, ends := resume(t, tab, marks)
				if fmt.Sprint(ends) != fmt.Sprint(wholeEnds) {
					t.Fatalf("batch %d: resumed scans end at %v, whole scans at %v", batch, ends, wholeEnds)
				}
				got := 0
				for p := range tail {
					if want := whole[p][marks[p].Rows:]; fmt.Sprint(tail[p]) != fmt.Sprint(want) {
						t.Fatalf("batch %d partition %d: resumed scan read %v, the whole scan's tail is %v", batch, p, tail[p], want)
					}
					got += len(tail[p])
				}
				if got != 6 {
					t.Fatalf("batch %d: resumed scans read %d rows, 6 were appended", batch, got)
				}
				if tab.Epoch() != epoch {
					t.Fatalf("batch %d: appends moved the epoch %d → %d", batch, epoch, tab.Epoch())
				}
				marks = ends
			}
			if tail, _ := resume(t, tab, marks); fmt.Sprint(tail) != "[[] [] []]" {
				t.Fatalf("a scan resumed at the end read %v", tail)
			}
			if dir != "" {
				// A reattached table accounts the same marks.
				re, err := OpenTable("x", testSchema(), dir, 3)
				if err != nil {
					t.Fatal(err)
				}
				if _, ends := resume(t, re, nil); fmt.Sprint(ends) != fmt.Sprint(marks) {
					t.Fatalf("reattached, scans end at %v; before, at %v", ends, marks)
				}
			}
			if err := tab.Truncate(); err != nil {
				t.Fatal(err)
			}
			if tab.Epoch() == epoch {
				t.Fatal("truncate left the epoch")
			}
			_, err = tab.ScanPartitionRead(context.Background(), 0, Read{From: marks[0]})
			if err == nil || !strings.Contains(err.Error(), "no scan resumes") {
				t.Fatalf("resuming a truncated partition: %v", err)
			}
		})
	}
}

// TestRollbackKeepsMarks: a write that rolls back cleanly leaves the
// table as it found it — epoch, counts and every mark — so a scan
// resumed from marks taken before it reads nothing, and after the next
// write exactly that write's rows.
func TestRollbackKeepsMarks(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tab, 4)
	_, marks := resume(t, tab, nil)
	epoch := tab.Epoch()
	sentinel := errors.New("injected append failure")
	tab.SetFault(&Fault{Partition: 1, FlushClose: true, Err: sentinel})
	if err := tab.Insert(row(10, 1, "a"), row(11, 2, "b"), row(12, 3, "c")); !errors.Is(err, sentinel) {
		t.Fatalf("want injected append error, got %v", err)
	}
	tab.SetFault(nil)
	if tab.NumRows() != 4 || tab.Epoch() != epoch {
		t.Fatalf("after rollback: rows %d epoch %d, want 4 and %d", tab.NumRows(), tab.Epoch(), epoch)
	}
	if tail, ends := resume(t, tab, marks); fmt.Sprint(tail) != "[[] []]" || fmt.Sprint(ends) != fmt.Sprint(marks) {
		t.Fatalf("after rollback a resumed scan read %v, ending at %v (marks %v)", tail, ends, marks)
	}
	if err := tab.Insert(row(20, 5, "d")); err != nil {
		t.Fatal(err)
	}
	if tail, _ := resume(t, tab, marks); fmt.Sprint(tail) != "[[20] []]" {
		t.Fatalf("after the next insert a resumed scan read %v", tail)
	}
}

func TestTruncateFailMarksPartitionCorrupt(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tab, 4)
	epoch := tab.Epoch()
	sentinel := errors.New("injected truncate failure")
	// The write to partition 1 fails after writing, and the rollback
	// truncate fails too: torn bytes stay on disk.
	tab.SetFault(&Fault{Partition: 1, FlushClose: true, TruncateFail: true, Err: sentinel})
	if err := tab.Insert(row(10, 1, "a"), row(11, 2, "b")); !errors.Is(err, sentinel) {
		t.Fatalf("want injected error, got %v", err)
	}
	tab.SetFault(nil)
	// The corrupt partition refuses scans loudly instead of decoding
	// garbage, and the failure names the partition.
	err = tab.ScanPartition(context.Background(), 1, func(sqltypes.Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt partition 1") {
		t.Fatalf("scan of corrupt partition: %v", err)
	}
	// Whole-table scans fail as well.
	if err := tab.Scan(func(sqltypes.Row) error { return nil }); err == nil {
		t.Fatal("full scan of table with corrupt partition succeeded")
	}
	// Healthy partitions still serve.
	if err := tab.ScanPartition(context.Background(), 0, func(sqltypes.Row) error { return nil }); err != nil {
		t.Fatalf("healthy partition refused: %v", err)
	}
	// Later inserts are refused before writing anything.
	err = tab.Insert(row(20, 5, "c"), row(21, 6, "d"))
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("insert into corrupt partition: %v", err)
	}
	// Marking the partition corrupt moved the epoch.
	if tab.Epoch() == epoch {
		t.Fatal("corruption left the epoch")
	}
	// Truncate rewrites the files empty, clearing the corruption.
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Scan(func(sqltypes.Row) error { return nil }); err != nil {
		t.Fatalf("scan after truncate: %v", err)
	}
	if err := tab.Insert(row(30, 7, "e"), row(31, 8, "f")); err != nil {
		t.Fatalf("insert after truncate: %v", err)
	}
}
