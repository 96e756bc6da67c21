package storage

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

// recordingObserver tallies the callbacks a table fires.
type recordingObserver struct {
	appended    int64
	publishes   int
	invalidates int
	lastRows    int64
	lastEpoch   int64
}

func (o *recordingObserver) OnAppend(p int, rows []sqltypes.Row) { o.appended += int64(len(rows)) }
func (o *recordingObserver) OnPublish(rows, epoch int64) {
	o.publishes++
	o.lastRows, o.lastEpoch = rows, epoch
}
func (o *recordingObserver) OnInvalidate() { o.invalidates++ }

func TestObserverSeesInsertsAndBulkLoads(t *testing.T) {
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
			var o recordingObserver
			rows, epoch := tab.Observe(&o)
			if rows != 0 || epoch != 0 {
				t.Fatalf("fresh table stamp = (%d, %d), want (0, 0)", rows, epoch)
			}
			fill(t, tab, 7)
			if o.appended != 7 || o.publishes != 1 {
				t.Fatalf("after insert: appended=%d publishes=%d", o.appended, o.publishes)
			}
			if o.lastRows != 7 || o.lastRows != tab.NumRows() || o.lastEpoch != tab.Epoch() {
				t.Fatalf("publish stamp (%d, %d) disagrees with table (%d, %d)",
					o.lastRows, o.lastEpoch, tab.NumRows(), tab.Epoch())
			}
			bl, err := tab.NewBulkLoader()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := bl.Add(row(int64(100+i), float64(i), "bulk")); err != nil {
					t.Fatal(err)
				}
			}
			if err := bl.Close(); err != nil {
				t.Fatal(err)
			}
			if o.appended != 12 || o.publishes != 2 {
				t.Fatalf("after bulk load: appended=%d publishes=%d", o.appended, o.publishes)
			}
			if o.lastRows != 12 || o.lastEpoch != tab.Epoch() {
				t.Fatalf("bulk publish stamp (%d, %d), table (%d, %d)",
					o.lastRows, o.lastEpoch, tab.NumRows(), tab.Epoch())
			}
			if o.invalidates != 0 {
				t.Fatalf("spurious invalidations: %d", o.invalidates)
			}
			// Truncate invalidates and republishes the empty stamp.
			if err := tab.Truncate(); err != nil {
				t.Fatal(err)
			}
			if o.invalidates != 1 || o.lastRows != 0 {
				t.Fatalf("after truncate: invalidates=%d lastRows=%d", o.invalidates, o.lastRows)
			}
			// Unobserve stops the callbacks.
			tab.Unobserve(&o)
			fill(t, tab, 2)
			if o.appended != 12 {
				t.Fatalf("unobserved observer still notified: appended=%d", o.appended)
			}
		})
	}
}

func TestObserverRollbackInvalidates(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tab, 4)
	var o recordingObserver
	tab.Observe(&o)
	sentinel := errors.New("injected append failure")
	tab.SetFault(&Fault{Partition: 1, FlushClose: true, Err: sentinel})
	err = tab.Insert(row(10, 1, "a"), row(11, 2, "b"), row(12, 3, "c"))
	if !errors.Is(err, sentinel) {
		t.Fatalf("want injected append error, got %v", err)
	}
	// The failed insert rolled back cleanly and published nothing; the
	// rows the observer was streamed before the failure were retracted,
	// so it was invalidated instead.
	tab.SetFault(nil)
	if tab.NumRows() != 4 {
		t.Fatalf("rows after rollback = %d, want 4", tab.NumRows())
	}
	if o.publishes != 0 || o.invalidates != 1 {
		t.Fatalf("failed insert: publishes=%d invalidates=%d, want 0 and 1", o.publishes, o.invalidates)
	}
	// The table keeps working and the next insert publishes its stamp.
	if err := tab.Insert(row(20, 5, "d")); err != nil {
		t.Fatal(err)
	}
	if o.lastRows != 5 {
		t.Fatalf("published rows = %d, want 5", o.lastRows)
	}
}

func TestTruncateFailMarksPartitionCorrupt(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tab, 4)
	var o recordingObserver
	tab.Observe(&o)
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
	// Observers were invalidated when the corruption was recorded.
	if o.invalidates == 0 {
		t.Fatal("corruption did not invalidate observers")
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
