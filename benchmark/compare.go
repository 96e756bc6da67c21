package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, one per (metric, workload) row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // run-to-run spread wider than the bound
)

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	led := &ledger{}
	if err := json.Unmarshal(b, led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != 1 || len(led.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a benchmark result file (schema %d)", path, led.Schema)
	}
	return led, nil
}

// verdict applies one metric's bound. worse is how far the new median
// sits on the bad side of the old one, as a share of the old; spread is
// the wider of the two sides' interquartile ranges over their medians.
func verdict(m metricSpec, oldMed, newMed, spread float64) (string, float64) {
	worse := (newMed - oldMed) / math.Abs(oldMed)
	if m.Better == higher {
		worse = -worse
	}
	switch {
	case spread > m.Bound:
		return unresolved, worse
	case worse > m.Bound:
		return regressed, worse
	case worse < -spread && worse < 0:
		return improved, worse
	}
	return unchanged, worse
}

// compareFiles prints one row per (end-to-end metric, workload) and
// returns exit code 1 when any row regressed, any run failed
// operations, or a count metric changed.
func compareFiles(oldPath, newPath string, stdout io.Writer) (int, error) {
	oldL, err := readLedger(oldPath)
	if err != nil {
		return 2, err
	}
	newL, err := readLedger(newPath)
	if err != nil {
		return 2, err
	}
	return compareLedgers(oldL, newL, stdout), nil
}

func compareLedgers(oldL, newL *ledger, w io.Writer) int {
	fmt.Fprintf(w, "old: commit %s, %d runs of %g s, seed %d\nnew: commit %s, %d runs of %g s, seed %d\n",
		oldL.Commit, oldL.Runs, oldL.Seconds, oldL.Seed, newL.Commit, newL.Runs, newL.Seconds, newL.Seed)
	if oldL.Seconds != newL.Seconds || oldL.GOMAXPROCS != newL.GOMAXPROCS {
		fmt.Fprintf(w, "warning: run length or GOMAXPROCS differ between the two files\n")
	}
	fmt.Fprintf(w, "%-15s %-12s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "spread", "bound", "verdict")
	bad := 0
	for _, ws := range workloadSpecs {
		o, n := oldL.Workloads[ws.Name], newL.Workloads[ws.Name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-15s missing from one file\n", ws.Name)
			bad++
			continue
		}
		for _, m := range endToEndSpecs {
			sp := math.Max(iqrShare(o, m.Name), iqrShare(n, m.Name))
			v, worse := verdict(m, o.Median[m.Name], n.Median[m.Name], sp)
			if v == regressed {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-12s %12.4f %12.4f %+7.2f%% %7.2f%% %6.1f%%  %s\n", ws.Name, m.Name,
				o.Median[m.Name], n.Median[m.Name], 100*worse, 100*sp, 100*m.Bound, v)
		}
		for _, r := range n.Runs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-15s fail_ratio %g on seed %d: %s  %s\n", ws.Name, r.FailRatio, r.Seed, r.FirstError, regressed)
				bad++
			}
		}
		if o.Traced == nil || n.Traced == nil {
			continue
		}
		for _, name := range countMetrics {
			ov, nv := o.Traced.Metrics[name].Value, n.Traced.Metrics[name].Value
			if ov != nv {
				fmt.Fprintf(w, "%-15s %-36s count changed: %v -> %v\n", ws.Name, name, ov, nv)
				if oldL.Seed == newL.Seed || name != "wire.bytes_per_row" {
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) regressed\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no row regressed")
	return 0
}

func iqrShare(wl *workloadLedger, metric string) float64 {
	if wl.Median[metric] == 0 {
		return 0
	}
	return (wl.Q3[metric] - wl.Q1[metric]) / math.Abs(wl.Median[metric])
}
