package db

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
)

// loadSummaryFixture creates X(i, X1..X3) on disk and inserts n rows
// through the SQL INSERT path.
func loadSummaryFixture(t *testing.T, d *DB, n int) {
	t.Helper()
	mustExec(t, d, "CREATE TABLE X (i BIGINT, X1 DOUBLE, X2 DOUBLE, X3 DOUBLE)")
	insertSummaryRows(t, d, 0, n)
}

func insertSummaryRows(t *testing.T, d *DB, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		v := float64(i)
		mustExec(t, d, fmt.Sprintf("INSERT INTO X VALUES (%d, %g, %g, %g)",
			i, v/3, v*v/50+1, 40-v))
	}
}

// TestSummaryCacheWarmRebuildZeroScans: after appends, a model rebuild
// on the warm cache reads the appended rows and nothing else, the next
// one reads nothing, and both match the cold-scan summary bit for bit.
func TestSummaryCacheWarmRebuildZeroScans(t *testing.T) {
	d := Open(Options{Dir: t.TempDir(), Partitions: 4})
	loadSummaryFixture(t, d, 60)
	ctx := context.Background()
	cols := []string{"X1", "X2", "X3"}

	// Cold: the first read rebuilds with one scan.
	s1, hit, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if hit || s1.N != 60 {
		t.Fatalf("cold read: hit=%v n=%g", hit, s1.N)
	}

	// Appends leave the entry warm: the next read resumes after them.
	insertSummaryRows(t, d, 60, 90)

	tab, err := d.Table("X")
	if err != nil {
		t.Fatal(err)
	}
	tab.ResetScannedRows()
	s2, hit, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("read after appends missed the cache")
	}
	if n := tab.ScannedRows(); n != 30 {
		t.Fatalf("warm rebuild scanned %d rows, want the 30 appended", n)
	}
	if s2.N != 90 {
		t.Fatalf("warm summary covers n=%g, want 90", s2.N)
	}
	tab.ResetScannedRows()
	if _, hit, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular); err != nil || !hit {
		t.Fatalf("re-read: hit=%v err=%v", hit, err)
	}
	if n := tab.ScannedRows(); n != 0 {
		t.Fatalf("a re-read of a caught-up summary scanned %d rows, want 0", n)
	}

	// The caught-up summary is the from-scratch scan's, bit for bit —
	// model outputs derived from it therefore are too.
	d.InvalidateSummaries("X")
	s3, hit, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("invalidate did not force a rebuild")
	}
	if s2.Pack() != s3.Pack() {
		t.Fatalf("warm %s\nrescan %s", s2.Pack(), s3.Pack())
	}
}

// TestSummaryNLQDefaultsAndErrors: nil columns select the DOUBLE
// columns; sys. tables and missing tables are rejected.
func TestSummaryNLQDefaultsAndErrors(t *testing.T) {
	d := openTest(t)
	loadSummaryFixture(t, d, 10)
	ctx := context.Background()
	s, _, err := d.SummaryNLQ(ctx, "X", nil, core.Diagonal)
	if err != nil {
		t.Fatal(err)
	}
	if s.D != 3 || s.N != 10 {
		t.Fatalf("default columns gave d=%d n=%g, want d=3 n=10", s.D, s.N)
	}
	if _, _, err := d.SummaryNLQ(ctx, "sys.metrics", nil, core.Diagonal); err == nil {
		t.Fatal("summary over a sys. table accepted")
	}
	if _, _, err := d.SummaryNLQ(ctx, "nope", nil, core.Diagonal); err == nil {
		t.Fatal("summary over a missing table accepted")
	}
}

// TestSysSummaries: the catalog is visible through SQL with live
// hit/miss accounting and validity state.
func TestSysSummaries(t *testing.T) {
	d := openTest(t)
	loadSummaryFixture(t, d, 12)
	ctx := context.Background()
	cols := []string{"X1", "X2"}
	if _, _, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular); err != nil {
		t.Fatal(err) // miss + rebuild
	}
	if _, _, err := d.SummaryNLQ(ctx, "X", cols, core.Triangular); err != nil {
		t.Fatal(err) // hit
	}
	rows := query(t, d, "SELECT table_name, columns, state, n, hits, misses FROM sys.summaries")
	if len(rows) != 1 {
		t.Fatalf("sys.summaries rows = %v", rows)
	}
	r := rows[0]
	if r[0] != "x" || r[1] != "X1,X2" || r[2] != "fresh" {
		t.Fatalf("sys.summaries row = %v", r)
	}
	if n, _ := strconv.ParseFloat(r[3], 64); n != 12 {
		t.Fatalf("n = %v, want 12", r[3])
	}
	hits, _ := strconv.Atoi(r[4])
	misses, _ := strconv.Atoi(r[5])
	if hits < 1 || misses < 1 {
		t.Fatalf("hits=%d misses=%d, want both ≥ 1", hits, misses)
	}
	// DROP TABLE removes the entry.
	mustExec(t, d, "DROP TABLE X")
	if rows := query(t, d, "SELECT table_name FROM sys.summaries"); len(rows) != 0 {
		t.Fatalf("entries survive DROP TABLE: %v", rows)
	}
}

// TestSummaryMetricsExposed: the four engine_summary_* instruments are
// visible through sys.metrics after cache activity.
func TestSummaryMetricsExposed(t *testing.T) {
	d := openTest(t)
	loadSummaryFixture(t, d, 5)
	ctx := context.Background()
	if _, _, err := d.SummaryNLQ(ctx, "X", nil, core.Triangular); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.SummaryNLQ(ctx, "X", nil, core.Triangular); err != nil {
		t.Fatal(err)
	}
	insertSummaryRows(t, d, 5, 8)
	if _, _, err := d.SummaryNLQ(ctx, "X", nil, core.Triangular); err != nil {
		t.Fatal(err) // reads the three appended rows
	}
	vals := map[string]float64{}
	for _, r := range query(t, d, "SELECT name, value FROM sys.metrics") {
		f, _ := strconv.ParseFloat(r[1], 64)
		vals[r[0]] = f
	}
	for _, name := range []string{
		"engine_summary_hits",
		"engine_summary_misses",
		"engine_summary_incremental_updates",
	} {
		if vals[name] <= 0 {
			t.Fatalf("%s = %v, want > 0 (all: hits=%v misses=%v inc=%v)",
				name, vals[name], vals["engine_summary_hits"],
				vals["engine_summary_misses"], vals["engine_summary_incremental_updates"])
		}
	}
	if vals["engine_summary_rebuild_seconds_count"] <= 0 {
		t.Fatalf("engine_summary_rebuild_seconds_count = %v, want > 0",
			vals["engine_summary_rebuild_seconds_count"])
	}
}
