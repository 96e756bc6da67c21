package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	statsudf "repro"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.0005, Partitions: 4, Runs: 1, Out: &bytes.Buffer{}}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.05 || c.Partitions != 20 || c.Runs != 1 || c.Out == nil || c.Seed == 0 {
		t.Fatalf("defaults = %+v", c)
	}
	if n := c.rows(100); n != 5000 {
		t.Fatalf("rows(100) = %d", n)
	}
	small := Config{Scale: 1e-9}.withDefaults()
	if small.Scale != 1e-9 {
		t.Fatal("explicit scale overridden")
	}
	if n := small.rows(100); n != 20 {
		t.Fatalf("row floor = %d", n)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"t1", "t2", "t3", "t4", "t5", "t6", "f1", "f2", "f3", "f4", "f5", "f6", "a1", "a2"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := ByID("zz"); ok {
		t.Error("unknown id matched")
	}
}

func TestRunAllRejectsUnknown(t *testing.T) {
	if err := RunAll(tiny(), []string{"nope"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func checkTable(t *testing.T, tb *Table, wantRows int) {
	t.Helper()
	if len(tb.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tb.ID, len(tb.Rows), wantRows)
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Header) {
			t.Fatalf("%s: row width %d vs header %d", tb.ID, len(r), len(tb.Header))
		}
	}
}

func TestTable1(t *testing.T) {
	tabs, err := runTable1(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
	// Every timing cell carries its one repetition.
	for _, r := range tabs[0].Rows {
		for _, c := range r[1:] {
			if len(c.timing.Runs) != 1 || c.value <= 0 {
				t.Fatalf("timing cell %+v", c)
			}
		}
	}
}

func TestTable2(t *testing.T) {
	tabs, err := runTable2(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 8)
}

func TestTable3(t *testing.T) {
	tabs, err := runTable3(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
}

func TestTable4(t *testing.T) {
	tabs, err := runTable4(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 12) // 4 sizes × 3 techniques
}

func TestTable5(t *testing.T) {
	tabs, err := runTable5(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 12) // 2 sizes × 6 group counts
}

func TestTable6(t *testing.T) {
	cfg := tiny().withDefaults()
	tabs, err := runTable6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
	// Call counts follow the lower-triangle plan.
	for i, want := range []float64{1, 3, 10, 36, 136} {
		if got := tabs[0].value(i, "# of UDF calls"); got != want {
			t.Fatalf("row %d calls = %v, want %v", i, got, want)
		}
	}
}

func TestFigure1And2(t *testing.T) {
	if testing.Short() {
		t.Skip("many measurements")
	}
	tabs, err := runFigure1(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
	tabs, err = runFigure2(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
}

func TestFigure4And5(t *testing.T) {
	if testing.Short() {
		t.Skip("many measurements")
	}
	tabs, err := runFigure4(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("%d tables", len(tabs))
	}
	checkTable(t, tabs[0], 5)
	checkTable(t, tabs[1], 5)
	tabs, err = runFigure5(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
	checkTable(t, tabs[1], 5)
}

func TestFigure3(t *testing.T) {
	tabs, err := runFigure3(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("%d tables", len(tabs))
	}
	checkTable(t, tabs[0], 5)
	checkTable(t, tabs[1], 5)
}

func TestFigure6(t *testing.T) {
	tabs, err := runFigure6(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 5)
}

func TestAblations(t *testing.T) {
	tabs, err := runAblatePartitions(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 2)
	tabs, err = runAblateSQLStyle(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 3)
	// Statement counts: 1 + d + d(d+1)/2.
	if tabs[0].value(0, "statements") != 15 || tabs[0].value(2, "statements") != 153 {
		t.Fatalf("statement counts: %v", tabs[0].text())
	}
}

func TestClusterScale(t *testing.T) {
	tabs, err := runClusterScale(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tabs[0], 3) // 1 process, 2 shards, 4 shards
	for _, r := range tabs[0].Rows {
		for _, c := range r[1:4] {
			if c.value <= 0 {
				t.Fatalf("time cell %+v", c)
			}
		}
		if s := r[4].String(); !strings.HasSuffix(s, "x") {
			t.Fatalf("speedup cell %q", s)
		}
	}
	if !strings.Contains(tabs[0].Note, "shard_unavailable") {
		t.Fatalf("partial-failure leg missing from note: %q", tabs[0].Note)
	}
}

func TestRunAllSingleAndPrint(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Out = &buf
	if err := RunAll(cfg, []string{"t3"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== t3:") || !strings.Contains(out, "[t3 completed in") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestReusedDir is `bench -dir D -exp a1,t5` run twice over one
// directory: every engine reattaches the catalog (and table X) the
// previous one left, a1 changes the partition count between engines,
// and the second pass starts from the first pass's leftovers with yet
// another count.
func TestReusedDir(t *testing.T) {
	cfg := tiny()
	cfg.Dir = t.TempDir()
	for _, partitions := range []int{4, 3} {
		cfg.Partitions = partitions
		if err := RunAll(cfg, []string{"a1", "t5"}); err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
	}
	d, err := statsudf.Open(statsudf.Options{Dir: cfg.Dir, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := d.Engine().Table("X")
	if err != nil {
		t.Fatalf("table X not reattached from the reused directory: %v", err)
	}
	if tab.Partitions() != 3 {
		t.Fatalf("reattached X has %d partitions, want the last run's 3", tab.Partitions())
	}
}

func TestTiming(t *testing.T) {
	tm := Timing{Runs: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}}
	if got := tm.Mean(); got != 200*time.Millisecond {
		t.Errorf("Mean() = %v, want 200ms", got)
	}
	if got := tm.Min(); got != 100*time.Millisecond {
		t.Errorf("Min() = %v, want 100ms", got)
	}
	if got := tm.Max(); got != 300*time.Millisecond {
		t.Errorf("Max() = %v, want 300ms", got)
	}
	if got := tm.Seconds(); got != 0.2 {
		t.Errorf("Seconds() = %v, want 0.2", got)
	}
	single := Timing{Runs: []time.Duration{time.Second}}
	var empty Timing
	if empty.Mean() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Errorf("empty Timing should be all zero")
	}
	cells := &Table{}
	cells.add([]Timing{empty, single}, 1500*time.Millisecond, []Timing{tm}, 7, "label")
	if got := strings.Join(cells.text()[0], "|"); got != "0.0000|1.0000|1.5000|0.2000 [0.1000..0.3000]|7|label" {
		t.Errorf("rendered cells = %q", got)
	}
}

func TestTimeItRecordsEveryRun(t *testing.T) {
	cfg := Config{Runs: 3}.withDefaults()
	n := 0
	tm, err := timeIt(cfg, func() error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(tm.Runs) != 3 {
		t.Errorf("ran %d times, recorded %d, want 3/3", n, len(tm.Runs))
	}
	wantErr := fmt.Errorf("boom")
	if _, err := timeIt(cfg, func() error { return wantErr }); err != wantErr {
		t.Errorf("timeIt error = %v, want boom", err)
	}
}

func TestRunAllWritesJSON(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Scale: 0.002, Runs: 1, Out: &buf, JSONDir: dir}
	if err := RunAll(cfg, []string{"a3"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_a3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID     string `json:"id"`
		Tables []struct {
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if doc.ID != "a3" || len(doc.Tables) == 0 || len(doc.Tables[0].Rows) == 0 {
		t.Errorf("artifact missing content: %+v", doc)
	}
}
