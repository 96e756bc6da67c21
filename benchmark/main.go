// Command benchmark is the repo's performance ledger: five named
// workloads, each run in a fresh process, checked against an oracle,
// reported as end-to-end metrics (tracing off) and per-layer metrics
// (a separate traced run). See README.md in this directory.
//
//	go run ./benchmark                              every workload, untraced runs and a traced run
//	go run ./benchmark --workload build_udf --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// run returns the exit code: 0, 1 for a failed run or a regression
// found by -compare, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: all, each in a fresh process)")
	seed := fs.Int64("seed", 2007, "seed of the generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span dump; 0 = end-to-end metrics")
	out := fs.String("out", "bench-out", "directory for result files, span dumps and scratch data")
	runs := fs.Int("runs", 5, "untraced runs per workload when running all workloads; run i uses seed+i")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag set has reported it
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("usage: benchmark -compare old.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 || fs.NArg() != 0 {
		return 2, errors.New("--seconds must be positive, --trace 0 or 1, --runs at least 1, and no other arguments")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	if *workload == "" {
		if err := runAll(*seed, *seconds, *runs, *out, stdout, stderr); err != nil {
			return 1, err
		}
		return 0, nil
	}
	rec, err := runWorkload(config{
		workload: *workload, seed: *seed, traced: *trace == 1, outDir: *out, sz: fullSizes,
		seconds: time.Duration(*seconds * float64(time.Second)),
	})
	if err != nil {
		return 1, err
	}
	if err := writeJSONFile(recordPath(*out, rec), rec); err != nil {
		return 1, err
	}
	if err := printRecord(stdout, rec); err != nil {
		return 1, err
	}
	return 0, nil
}

func recordPath(out string, rec *runRecord) string {
	kind := "run"
	if rec.Traced {
		kind = "traced"
	}
	return filepath.Join(out, fmt.Sprintf("%s_%s_seed%d.json", kind, rec.Workload, rec.Seed))
}

func writeResultLine(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ledger is the numeric result file of a full run, the input of
// -compare.
type ledger struct {
	Schema     int                        `json:"schema"`
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Runs       int                        `json:"runs"`
	Flush      string                     `json:"flush_policy"`
	Workloads  map[string]*workloadLedger `json:"workloads"`
}

type workloadLedger struct {
	Runs   []*runRecord `json:"runs"`   // untraced, seed+i
	Traced *runRecord   `json:"traced"` // per-layer metrics
	// Median, Q1 and Q3 of every end-to-end metric over Runs.
	Median map[string]float64 `json:"median"`
	Q1     map[string]float64 `json:"q1"`
	Q3     map[string]float64 `json:"q3"`
}

const flushPolicy = "no fsync is issued by the storage layer; reads are served by the OS page cache. Latencies are the sandbox's, not a device's."

// commit identifies the measured source: the build's VCS stamp when
// there is one, else BENCH_COMMIT from the environment.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAll measures every workload, each run in a fresh process so that
// set-up time and peak memory are per workload.
func runAll(seed int64, seconds float64, runs int, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	led := &ledger{
		Schema: 1, Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Runs: runs, Flush: flushPolicy,
		Workloads: map[string]*workloadLedger{},
	}
	child := func(workload string, seed int64, trace int) (*runRecord, error) {
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if trace == 1 { // the traced report carries the where-the-time-goes table
			fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		}
		rec := &runRecord{}
		b, err := os.ReadFile(recordPath(out, &runRecord{Workload: workload, Seed: seed, Traced: trace == 1}))
		if err != nil {
			return nil, err
		}
		return rec, json.Unmarshal(b, rec)
	}
	// Runs go round the workloads, so that a burst of interference that
	// lasts minutes touches a run or two of each workload, not half the
	// runs of one.
	for _, w := range workloadSpecs {
		led.Workloads[w.Name] = &workloadLedger{Median: map[string]float64{}, Q1: map[string]float64{}, Q3: map[string]float64{}}
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloadSpecs {
			rec, err := child(w.Name, seed+int64(i), 0)
			if err != nil {
				return err
			}
			wl := led.Workloads[w.Name]
			wl.Runs = append(wl.Runs, rec)
			fmt.Fprintf(stdout, "%-15s run %d/%d seed %d: %d ops, %d failed, %.2f ops/s, p50 %.3f ms, p95 %.3f ms, set-up %.2f s\n",
				w.Name, i+1, runs, rec.Seed, rec.Attempted, rec.Failed, rec.Metrics["ops_per_s"].Value,
				rec.Metrics["op_p50_ms"].Value, rec.Metrics["op_p95_ms"].Value, rec.Metrics["setup_s"].Value)
		}
	}
	for _, w := range workloadSpecs {
		wl := led.Workloads[w.Name]
		if wl.Traced, err = child(w.Name, seed, 1); err != nil {
			return err
		}
		for _, m := range endToEndSpecs {
			var v []float64
			for _, r := range wl.Runs {
				v = append(v, r.Metrics[m.Name].Value)
			}
			wl.Q1[m.Name], wl.Median[m.Name], wl.Q3[m.Name] = quartiles(v)
		}
	}
	printLedger(stdout, led)
	path := filepath.Join(out, "perf.json")
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return writeJSONFile(path, led)
}

// printLedger prints every end-to-end metric by name with its unit,
// one row per (metric, workload).
func printLedger(w io.Writer, led *ledger) {
	fmt.Fprintf(w, "\ncommit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  %g s x %d runs\n%s\n",
		led.Commit, led.GoVersion, led.NProc, led.GOMAXPROCS, led.Seed, led.Seconds, led.Runs, led.Flush)
	fmt.Fprintf(w, "%-15s %-12s %-5s %14s %14s %14s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread")
	for _, ws := range workloadSpecs {
		wl := led.Workloads[ws.Name]
		var attempted, failed int64
		for _, r := range wl.Runs {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
		for _, m := range endToEndSpecs {
			fmt.Fprintf(w, "%-15s %-12s %-5s %14.4f %14.4f %14.4f %7.2f%%\n", ws.Name, m.Name, m.Unit,
				wl.Median[m.Name], wl.Q1[m.Name], wl.Q3[m.Name], 100*(wl.Q3[m.Name]-wl.Q1[m.Name])/wl.Median[m.Name])
		}
		fmt.Fprintf(w, "%-15s %-12s %-5s %14g  (%d failed of %d attempted)\n", ws.Name, "fail_ratio", "ratio",
			float64(failed)/float64(attempted), failed, attempted)
	}
}
