package storage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

// TestWriteFaultMatrix pins the one failure rule of the write path:
// whichever way rows arrive and whatever goes wrong, the write lands
// completely or leaves the table — counts, files, scans, epoch and the
// marks a scan resumes from — as it found it, and the table takes the
// next write.
func TestWriteFaultMatrix(t *testing.T) {
	const (
		parts  = 4
		seeded = 10 // rows before the write
		n      = 8  // rows the write carries: two per partition
		faultP = 2  // the partition the flush faults hit
	)
	writers := []string{"Insert", "BulkLoader+Close", "BulkLoader+Abort"}
	faults := []string{"none", "bad last row", "flush fault", "flush fault + TruncateFail"}
	for _, writer := range writers {
		for _, fault := range faults {
			for _, disk := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/disk=%v", writer, fault, disk), func(t *testing.T) {
					dir := ""
					if disk {
						dir = t.TempDir()
					}
					tab, err := NewTable("x", testSchema(), dir, parts)
					if err != nil {
						t.Fatal(err)
					}
					fill(t, tab, seeded)
					beforeParts := tab.PartitionRowCounts()
					beforeSize, _ := tab.SizeBytes()
					_, marks := resume(t, tab, nil)
					epoch := tab.Epoch()

					batch := make([]sqltypes.Row, n)
					for i := range batch {
						batch[i] = row(int64(100+i), 0, "new")
					}
					// A flush fault needs a file to flush: in memory it cannot fire.
					fires := false
					switch fault {
					case "bad last row":
						batch[n-1] = sqltypes.Row{sqltypes.NewBigInt(1)}
						fires = true
					case "flush fault":
						tab.SetFault(&Fault{Partition: faultP, FlushClose: true})
						fires = disk
					case "flush fault + TruncateFail":
						tab.SetFault(&Fault{Partition: faultP, FlushClose: true, TruncateFail: true})
						fires = disk
					}
					lands := !fires && writer != "BulkLoader+Abort"
					corrupt := disk && fault == "flush fault + TruncateFail"

					if writer == "Insert" {
						err = tab.Insert(batch...)
					} else {
						bl, lerr := tab.NewBulkLoader()
						if lerr != nil {
							t.Fatal(lerr)
						}
						var addErr error
						for _, r := range batch {
							if addErr = bl.Add(r); addErr != nil {
								break
							}
						}
						if (addErr != nil) != (fault == "bad last row") {
							t.Fatalf("Add: %v", addErr)
						}
						if writer == "BulkLoader+Close" {
							err = bl.Close()
							if addErr != nil && err != addErr {
								t.Fatalf("Close after a failed Add returned %v, want %v", err, addErr)
							}
						} else {
							bl.Abort()
							bl.Abort() // a second Abort is a no-op
							err = nil
						}
					}
					if (err != nil) != (fires && writer != "BulkLoader+Abort") {
						t.Fatalf("write returned %v (fault fires: %v)", err, fires)
					}
					tab.SetFault(nil)

					want := int64(seeded)
					wantParts := append([]int64(nil), beforeParts...)
					if lands {
						want += n
						for p := range wantParts {
							wantParts[p] += n / parts
						}
					}
					if got := tab.NumRows(); got != want {
						t.Fatalf("NumRows = %d, want %d", got, want)
					}
					if got := tab.PartitionRowCounts(); fmt.Sprint(got) != fmt.Sprint(wantParts) {
						t.Fatalf("partition counts %v, want %v", got, wantParts)
					}
					if size, _ := tab.SizeBytes(); (size != beforeSize) != (lands && disk) {
						t.Fatalf("SizeBytes %d → %d, write landed: %v", beforeSize, size, lands)
					}
					for p := 0; p < parts; p++ {
						var c int64
						err := tab.ScanPartition(nil, p, func(sqltypes.Row) error { c++; return nil })
						if corrupt && p == faultP {
							if err == nil || !strings.Contains(err.Error(), "corrupt") {
								t.Fatalf("scan of the torn partition: %v", err)
							}
							continue
						}
						if err != nil || c != wantParts[p] {
							t.Fatalf("partition %d scans %d rows (%v), want %d", p, c, err, wantParts[p])
						}
						// Resumed from before the write, the scan reads the
						// write's rows or, rolled back, none.
						if _, err := tab.ScanPartitionRead(nil, p, Read{From: marks[p], Floats: func([]float64) error { c--; return nil }}); err != nil || c != beforeParts[p] {
							t.Fatalf("partition %d resumed from %+v: %v, %d rows short of the write", p, marks[p], err, c-beforeParts[p])
						}
					}
					// Only the torn partition moved the epoch.
					if moved := tab.Epoch() != epoch; moved != corrupt {
						t.Fatalf("epoch moved: %v, torn partition: %v", moved, corrupt)
					}

					// The next write lands — after a TRUNCATE when a torn
					// partition made the table refuse it.
					if corrupt {
						if err := tab.Insert(batch[0]); err == nil || !strings.Contains(err.Error(), "corrupt") {
							t.Fatalf("insert into a table with a torn partition: %v", err)
						}
						if err := tab.Truncate(); err != nil {
							t.Fatal(err)
						}
						want = 0
					}
					fill(t, tab, n)
					if got := tab.NumRows(); got != want+n {
						t.Fatalf("NumRows = %d after the next write, want %d", got, want+n)
					}
					if got := collect(t, tab); int64(len(got)) != want+n {
						t.Fatalf("scan sees %d rows after the next write, want %d", len(got), want+n)
					}
				})
			}
		}
	}
}

// TestAppenderBufferPolicy: a write opens only the partitions it routes
// rows to and buffers only what it stages.
func TestAppenderBufferPolicy(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tab.begin()
	if err != nil {
		t.Fatal(err)
	}
	defer a.abort()
	r := make(sqltypes.Row, tab.Schema().Len())
	if err := tab.validate(r, row(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := a.add(r); err != nil {
		t.Fatal(err)
	}
	for p, s := range a.parts {
		if (s.f != nil) != (p == 0) {
			t.Fatalf("partition %d: open=%v after one row routed to partition 0", p, s.f != nil)
		}
	}
	if c := cap(a.parts[0].buf); c >= appendFlushSize/16 {
		t.Fatalf("a one-row write holds a %d-byte buffer", c)
	}
}

// TestBulkLoaderAllocatesOnlyWhatItRetains: Add lets its caller reuse the
// row, so a table in memory allocates the one row it stores, and a table
// on disk — which encodes the row at once — allocates none per row. The
// loaded rows are the ones added, whatever buffer carried them.
func TestBulkLoaderAllocatesOnlyWhatItRetains(t *testing.T) {
	const n = 2000
	for _, c := range []struct {
		dir    string
		perRow float64
	}{{"", 1}, {t.TempDir(), 0}} {
		tab, err := NewTable("bulk", testSchema(), c.dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := tab.NewBulkLoader()
		if err != nil {
			t.Fatal(err)
		}
		r := row(0, 0, "same")
		i := 0
		allocs := testing.AllocsPerRun(n-1, func() {
			r[0], r[1] = sqltypes.NewBigInt(int64(i)), sqltypes.NewBigInt(int64(2*i)) // coerced to DOUBLE
			i++
			if err := bl.Add(r); err != nil {
				t.Fatal(err)
			}
		})
		if err := bl.Close(); err != nil {
			t.Fatal(err)
		}
		// Slices that grow with the load (partition slices, encode buffers)
		// add a fraction of an allocation per row.
		if allocs > c.perRow+0.1 {
			t.Errorf("on disk=%v: %v allocations per added row, want about %v", c.dir != "", allocs, c.perRow)
		}
		got := collect(t, tab)
		if len(got) != n {
			t.Fatalf("on disk=%v: %d rows loaded, want %d", c.dir != "", len(got), n)
		}
		seen := make([]bool, n)
		for _, g := range got {
			k := g[0].Int()
			if x, _ := g[1].Float(); seen[k] || g[1].Type() != sqltypes.TypeDouble || x != float64(2*k) || g[2].Str() != "same" {
				t.Fatalf("on disk=%v: row %v", c.dir != "", g)
			}
			seen[k] = true
		}
	}
}
