// Package harness regenerates every table and figure of the paper's
// evaluation (§4). Each experiment builds its workload with the synth
// generator, runs the competing implementations — the long SQL query,
// the aggregate/scalar UDFs, and the external single-threaded analyzer
// on ODBC-exported files — and prints the same rows/series the paper
// reports, with measured seconds in place of the paper's.
//
// The experiments are definitions over the shipped client: engines are
// opened, summaries computed and decoded, and models trained and stored
// through the statsudf facade, so the tables time the code an
// application runs. Only engine-level levers an experiment needs
// (summary invalidation, streamed scans, sys.* reads) go through
// Engine().
//
// Absolute times differ from the 2007 hardware by orders of magnitude;
// the reproduction targets the shapes: who wins, by what factor, and
// where the crossovers fall. The Scale knob shrinks the row counts
// proportionally (Scale=1 is the paper's full size).
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/odbcsim"
	"repro/internal/server"
	"repro/internal/sqlgen"
)

// Config controls an experiment run.
type Config struct {
	// Ctx, when set, cancels the run: RunAll stops between experiments
	// and repetitions, and streamed scoring scans abort mid-statement.
	// The bench command wires SIGINT/SIGTERM to it for graceful
	// shutdown. Nil means context.Background().
	Ctx context.Context
	// Scale multiplies the paper's row counts (1.0 = full size,
	// 0.01 = 1% for CI). Default 0.05.
	Scale float64
	// Partitions is the engine's parallelism; the paper's system had
	// 20 threads. Default 20.
	Partitions int
	// Dir holds the on-disk tables and export files. Empty uses a
	// temporary directory (removed afterwards).
	Dir string
	// ODBC models the export channel for the external comparator.
	ODBC odbcsim.Config
	// Runs averages each measurement over this many repetitions
	// (the paper used five). Default 1.
	Runs int
	// Out receives the rendered tables. Default os.Stdout.
	Out io.Writer
	// Seed makes workloads reproducible. Default 2007.
	Seed int64
	// JSONDir, when set, additionally writes each experiment's tables
	// as BENCH_<id>.json into the directory (created if missing) — the
	// machine-readable artifact CI uploads.
	JSONDir string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Partitions <= 0 {
		c.Partitions = 20
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Seed == 0 {
		c.Seed = 2007
	}
	return c
}

// ctx returns the run's cancellation context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// rows scales one of the paper's "n × 1000" sizes.
func (c Config) rows(nThousand int) int {
	n := int(float64(nThousand) * 1000 * c.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

// Table is one rendered result table.
type Table struct {
	ID     string     `json:"id"` // experiment id, e.g. "t1", "f3"
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Note   string     `json:"note,omitempty"`
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	printRow(tw, t.Header)
	for _, r := range t.Rows {
		printRow(tw, r)
	}
	tw.Flush()
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
}

func printRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// All returns the experiments in paper order, followed by the
// repository's extra ablations.
func All() []Experiment {
	return []Experiment{
		{"t1", "Total time to build models at d=32 (Table 1)", runTable1},
		{"t2", "Time for n,L,Q with aggregate UDF vs C++/SQL + ODBC export (Table 2)", runTable2},
		{"t3", "Time to build models given n,L,Q; independent of n (Table 3)", runTable3},
		{"t4", "Time to score X at d=32, k=16 (Table 4)", runTable4},
		{"t5", "GROUP BY aggregate UDF varying groups k at d=32 (Table 5)", runTable5},
		{"t6", "Time growth for high d via blocked UDF calls (Table 6)", runTable6},
		{"f1", "SQL vs aggregate UDF varying n (Figure 1)", runFigure1},
		{"f2", "SQL vs aggregate UDF varying d (Figure 2)", runFigure2},
		{"f3", "UDF parameter passing style: string vs list (Figure 3)", runFigure3},
		{"f4", "Aggregate UDF matrix optimization: diag/triang/full (Figure 4)", runFigure4},
		{"f5", "Aggregate UDF time varying n and d (Figure 5)", runFigure5},
		{"f6", "Scalar UDF scoring time varying n (Figure 6)", runFigure6},
		{"a1", "Ablation: partial-aggregation parallelism (partitions 1/4/20)", runAblatePartitions},
		{"a2", "Ablation: one long SQL query vs per-cell statements (§3.4)", runAblateSQLStyle},
		{"a3", "Executor statistics: scan volume, partition skew, phase times", runExecutorStats},
		{"a4", "Scoring delivery path: in-engine vs wire-protocol client vs ODBC export", runServingScoring},
		{"a5", "Ablation: incremental summary cache: cold scan vs warm cache vs incremental model builds", runSummaryCache},
		{"a6", "High-QPS point scoring over the wire: ad-hoc SQL vs plan cache vs PREPARE/EXECUTE", runPreparedQPS},
		{"a7", "Distributed scale-out: sharded n,L,Q builds through the cluster coordinator vs one process", runClusterScale},
		{"a8", "Ablation: row vs columnar scan path: cold n,L,Q builds and vectorized filter scans", runColumnarScan},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes the requested experiment ids (nil = all) and prints
// each table as it completes.
func RunAll(cfg Config, ids []string) error {
	cfg = cfg.withDefaults()
	exps := All()
	if len(ids) > 0 {
		var sel []Experiment
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				known := make([]string, 0, len(exps))
				for _, x := range exps {
					known = append(known, x.ID)
				}
				sort.Strings(known)
				return fmt.Errorf("harness: unknown experiment %q (known: %v)", id, known)
			}
			sel = append(sel, e)
		}
		exps = sel
	}
	for _, e := range exps {
		if err := cfg.ctx().Err(); err != nil {
			return fmt.Errorf("harness: run cancelled before %s: %w", e.ID, err)
		}
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Fprint(cfg.Out)
		}
		if cfg.JSONDir != "" {
			if err := writeJSON(cfg, e, tables, time.Since(start)); err != nil {
				return fmt.Errorf("harness: %s: %w", e.ID, err)
			}
		}
		fmt.Fprintf(cfg.Out, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeJSON saves one experiment's rendered tables as
// <JSONDir>/BENCH_<id>.json.
func writeJSON(cfg Config, e Experiment, tables []*Table, elapsed time.Duration) error {
	if err := os.MkdirAll(cfg.JSONDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		ID      string   `json:"id"`
		Title   string   `json:"title"`
		Scale   float64  `json:"scale"`
		Runs    int      `json:"runs"`
		Seconds float64  `json:"seconds"`
		Tables  []*Table `json:"tables"`
	}{e.ID, e.Title, cfg.Scale, cfg.Runs, elapsed.Seconds(), tables}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.JSONDir, "BENCH_"+e.ID+".json"), append(b, '\n'), 0o644)
}

// newDB opens an on-disk database through the shipped facade — the
// paper's parallelism, the UDFs installed; the caller must call the
// returned cleanup.
func newDB(cfg Config) (*statsudf.DB, func(), error) {
	return newDBMode(cfg, false)
}

// newDBMode is newDB with the scan mode explicit; the a8 ablation
// opens one engine per mode over identical data.
func newDBMode(cfg Config, columnar bool) (*statsudf.DB, func(), error) {
	dir := cfg.Dir
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "statsudf-bench-*")
		if err != nil {
			return nil, nil, err
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	d, err := statsudf.Open(statsudf.Options{Dir: dir, Partitions: cfg.Partitions, Columnar: columnar})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return d, cleanup, nil
}

// openMem opens an in-memory facade instance: the shard, coordinator
// catalog and point-serving arms, where the statement path rather than
// the disk is under test.
func openMem(partitions int) (*statsudf.DB, error) {
	return statsudf.Open(statsudf.Options{Partitions: partitions})
}

// serve fronts an engine with a wire server on an ephemeral local
// port — the twmd topology, in-process.
func serve(eng server.Engine) (*server.Server, error) {
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// loadX loads the standard mixture workload into table X.
func loadX(d *statsudf.DB, cfg Config, n, dims int) error {
	return d.Generate("X", statsudf.MixtureConfig{N: n, D: dims, Seed: cfg.Seed})
}

// summarize computes n, L, Q over X1..Xd of table X the way the
// facade's method says: the long SQL query, or the aggregate UDF with
// list or string parameter passing.
func summarize(d *statsudf.DB, dims int, mt core.MatrixType, via statsudf.SummaryMethod) (*core.NLQ, error) {
	return d.Summary("X", sqlgen.Dims(dims), statsudf.SummaryOptions{Method: via, Matrix: mt})
}

// Timing records every repetition of one measurement, so tables can
// report spread instead of collapsing to a single averaged number.
type Timing struct {
	Runs []time.Duration
}

// Mean is the average run duration (0 for an empty Timing).
func (t Timing) Mean() time.Duration {
	if len(t.Runs) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range t.Runs {
		total += d
	}
	return total / time.Duration(len(t.Runs))
}

// Min is the fastest run (0 for an empty Timing).
func (t Timing) Min() time.Duration {
	var m time.Duration
	for i, d := range t.Runs {
		if i == 0 || d < m {
			m = d
		}
	}
	return m
}

// Max is the slowest run.
func (t Timing) Max() time.Duration {
	var m time.Duration
	for _, d := range t.Runs {
		if d > m {
			m = d
		}
	}
	return m
}

// Seconds is the mean in seconds — the number figure series plot.
func (t Timing) Seconds() float64 { return t.Mean().Seconds() }

// String renders the mean, with the min..max spread when the
// measurement was repeated.
func (t Timing) String() string {
	if len(t.Runs) <= 1 {
		return fmt.Sprintf("%.4f", t.Seconds())
	}
	return fmt.Sprintf("%.4f [%.4f..%.4f]", t.Seconds(), t.Min().Seconds(), t.Max().Seconds())
}

// timeIt measures fn over cfg.Runs repetitions, recording each run.
func timeIt(cfg Config, fn func() error) (Timing, error) {
	t := Timing{Runs: make([]time.Duration, 0, cfg.Runs)}
	for r := 0; r < cfg.Runs; r++ {
		if err := cfg.ctx().Err(); err != nil {
			return Timing{}, err
		}
		start := time.Now()
		if err := fn(); err != nil {
			return Timing{}, err
		}
		t.Runs = append(t.Runs, time.Since(start))
	}
	return t, nil
}

// secs renders a measurement in seconds the way the paper's tables do,
// with enough precision for modern-hardware magnitudes. Timings render
// their min..max spread when repeated; plain durations render the
// bare value.
func secs(v interface{ Seconds() float64 }) string {
	if t, ok := v.(Timing); ok {
		return t.String()
	}
	return fmt.Sprintf("%.4f", v.Seconds())
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
