package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stableColumns are the headers whose cells do not depend on how fast
// the machine is: row labels, grid coordinates, counts and modeled
// (computed, not measured) seconds. Every other column is a
// measurement: its digits are masked before comparing, so the golden
// still pins how the cell is rendered ("N.N", "N.Nx", "N").
var stableColumns = map[string]bool{
	"n x1000(scaled)": true, "n x 1000": true, "d": true, "k": true,
	"technique": true, "query": true, "topology": true,
	"# of UDF calls": true, "statements": true,
	"rows scanned": true, "bytes": true, "emitted": true, "parts": true, "skew": true,
	"ODBC(modeled)": true, "odbc export (modeled)": true,
}

var (
	// runCounters matches the counters a note may carry whose value
	// depends on the run (a6's plan-cache hit count).
	runCounters = regexp.MustCompile(`engine_plan_cache_hits=\d+`)
	digits      = regexp.MustCompile(`\d+`)
)

// TestExperimentShape runs every experiment at the tiny scale and pins
// everything about its tables except the measurements — id, title,
// header, row labels, counts and note — against testdata/shape.golden,
// read from the -json artifact the way a downstream consumer would.
// Recorded before the harness moved onto one primitive and numeric
// cells; a refactor of the experiment bodies must leave it unchanged.
func TestExperimentShape(t *testing.T) {
	cfg := tiny()
	cfg.JSONDir = t.TempDir()
	if err := RunAll(cfg, nil); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, e := range All() {
		b, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_"+e.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			ID     string `json:"id"`
			Title  string `json:"title"`
			Tables []struct {
				ID     string     `json:"id"`
				Title  string     `json:"title"`
				Header []string   `json:"header"`
				Rows   [][]string `json:"rows"`
				Note   string     `json:"note"`
			} `json:"tables"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&out, "# %s: %s\n", doc.ID, doc.Title)
		for _, tb := range doc.Tables {
			fmt.Fprintf(&out, "== %s: %s ==\n%s\n", tb.ID, tb.Title, strings.Join(tb.Header, " | "))
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Fatalf("%s: row width %d vs header %d", tb.ID, len(row), len(tb.Header))
				}
				cells := make([]string, len(row))
				for i, c := range row {
					if cells[i] = digits.ReplaceAllString(c, "N"); stableColumns[tb.Header[i]] {
						cells[i] = c
					}
				}
				out.WriteString(strings.Join(cells, " | ") + "\n")
			}
			if tb.Note != "" {
				out.WriteString("note: " + runCounters.ReplaceAllString(tb.Note, "engine_plan_cache_hits=N") + "\n")
			}
		}
	}

	const golden = "testdata/shape.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, []byte(out.String())) {
		t.Fatalf("experiment shape changed; diff against %s (rerun with -update only if the change is intended):\n%s", golden, out.String())
	}
}
