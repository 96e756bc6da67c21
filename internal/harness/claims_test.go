package harness

import (
	"os"
	"slices"
	"testing"
)

// TestPaperClaims evaluates every claim over the experiments that feed
// it at the tiny scale. The claims with a wide recorded margin
// (EXPERIMENTS.md) hold at any scale and are asserted; the rest depend
// on n being large enough to outweigh per-statement costs and are
// logged.
func TestPaperClaims(t *testing.T) {
	assert := map[string]bool{
		"SQL/UDF time at d=32, largest n (smaller of Table 1 and Figure 1)": true,
		"string/list passing time at d=8, smallest over n":                  true,
		"ODBC export (modeled)/C++ compute on the same rows, smallest":      true,
		"full/diag matrix time at d=64, largest n":                          true,
		"Table 4 clustering scoring SQL/UDF time, largest n":                true,
	}
	cfg := tiny().withDefaults()
	cfg.Runs = 5
	ran := results{}
	verdicts := 0
	for _, e := range All() {
		if !slices.ContainsFunc(claims, func(c claim) bool { return slices.Contains(c.from, e.ID) }) {
			continue
		}
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		ran[e.ID] = tables
		verdict := checkClaims(ran, e.ID)
		if verdict == nil {
			continue // a claim this experiment feeds still waits for another source
		}
		for _, row := range verdict.text() {
			verdicts++
			t.Logf("%s [%s]: observed %s, %s", row[0], row[1], row[2], row[3])
			if assert[row[0]] && row[3] != "holds" {
				t.Errorf("claim %q does not hold at the tiny scale: observed %s", row[0], row[2])
			}
			delete(assert, row[0])
		}
	}
	if verdicts != len(claims) {
		t.Errorf("%d verdicts for %d claims", verdicts, len(claims))
	}
	for name := range assert {
		t.Errorf("asserted claim %q is not in the claim list", name)
	}
}

// TestOneLoadPerDataset pins the loads the primitive performs: arms over
// the same (n, d) share one load, so Figures 1-5 load their 80 grid
// points once each (190 open+load cycles before), and a1 still loads
// once per partition count.
func TestOneLoadPerDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("many measurements")
	}
	loads := func(ids ...string) int64 {
		before := datasetLoads.Load()
		if err := RunAll(tiny(), ids); err != nil {
			t.Fatal(err)
		}
		return datasetLoads.Load() - before
	}
	if got := loads("f1", "f2", "f3", "f4", "f5"); got != 80 {
		t.Errorf("f1-f5 performed %d dataset loads, want 80", got)
	}
	if got := loads("a1"); got != 6 {
		t.Errorf("a1 performed %d dataset loads, want 6 (2 sizes × 3 partition counts)", got)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestExternalArmClosesItsFile runs the external-analyzer arm many times
// over one export and requires the open-descriptor count to stay flat:
// Table 1's copy of the arm used to leak one descriptor per repetition,
// and panicked when the file could not be opened.
func TestExternalArmClosesItsFile(t *testing.T) {
	cfg := tiny().withDefaults()
	err := withDataset(cfg, dataset{n: 40, dims: 4}, func(e *env) error {
		if _, err := e.exportX(cfg.ODBC); err != nil {
			return err
		}
		run := external.arm(correlationOnly).run
		if err := run(e); err != nil {
			return err
		}
		before := openFDs(t)
		for i := 0; i < 50; i++ {
			if err := run(e); err != nil {
				return err
			}
		}
		if after := openFDs(t); after > before {
			t.Errorf("open descriptors grew from %d to %d over 50 repetitions", before, after)
		}
		e.exported += ".gone"
		if err := run(e); err == nil {
			t.Error("a missing export file must be an error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
