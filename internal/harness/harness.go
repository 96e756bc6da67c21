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
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	statsudf "repro"
	"repro/internal/odbcsim"
	"repro/internal/server"
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
	return max(int(float64(nThousand)*1000*c.Scale), 20)
}

// Table is one result table. Rows hold cells, not text: a label, or a
// number (measured seconds, a count, a ratio, modeled seconds) that one
// formatter renders for the aligned text and for JSON, so the claims
// and the tests read values, never strings.
type Table struct {
	ID     string // experiment id, e.g. "t1", "f3"
	Title  string
	Header []string
	Rows   [][]Cell
	Note   string
}

// Cell is one table cell.
type Cell struct {
	label  string  // all a text cell has
	value  float64 // a numeric cell's number; mean seconds for a measurement
	format string  // fmt verb rendering value; empty for a text cell
	timing Timing  // the repetitions behind a measurement
}

// number is a numeric cell rendered with the given verb ("%.0f" counts,
// "%.4f" seconds, "%.2fx" ratios).
func number(format string, v float64) Cell { return Cell{value: v, format: format} }

// timed is a measurement: its mean seconds, and the repetitions behind it.
func timed(tm Timing) Cell { return Cell{value: tm.Seconds(), format: "%.4f", timing: tm} }

// ratio is num/den rendered with format, or "-" when den is zero.
func ratio(format string, num, den float64) Cell {
	if den <= 0 {
		return Cell{label: "-"}
	}
	return number(format, num/den)
}

// String renders the cell the way the paper's tables print it: seconds
// to four decimals, a repeated measurement with its min..max spread.
func (c Cell) String() string {
	switch {
	case c.format == "":
		return c.label
	case len(c.timing.Runs) > 1:
		return fmt.Sprintf("%.4f [%.4f..%.4f]", c.value, c.timing.Min().Seconds(), c.timing.Max().Seconds())
	}
	return fmt.Sprintf(c.format, c.value)
}

// add appends one row, turning Go values into cells: a string is a
// label, an int a count, a Duration, a Timing or a slice of them seconds.
func (t *Table) add(cells ...any) {
	var row []Cell
	for _, c := range cells {
		switch v := c.(type) {
		case Cell:
			row = append(row, v)
		case string:
			row = append(row, Cell{label: v})
		case int:
			row = append(row, number("%.0f", float64(v)))
		case time.Duration:
			row = append(row, number("%.4f", v.Seconds()))
		case Timing:
			row = append(row, timed(v))
		case []Timing:
			for _, tm := range v {
				row = append(row, timed(tm))
			}
		default:
			panic(fmt.Sprintf("harness: no cell for %T", c))
		}
	}
	t.Rows = append(t.Rows, row)
}

// value is the number in the named column of row r (negative r counts
// from the last row); for a measurement, the median of its repetitions,
// which one slow repetition cannot move.
func (t *Table) value(r int, column string) float64 {
	if r < 0 {
		r += len(t.Rows)
	}
	for i, h := range t.Header {
		if h == column {
			c := t.Rows[r][i]
			if len(c.timing.Runs) > 0 {
				return c.timing.Median().Seconds()
			}
			return c.value
		}
	}
	panic(fmt.Sprintf("harness: table %s %q has no column %q", t.ID, t.Title, column))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.text() {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
}

// text renders every cell.
func (t *Table) text() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = make([]string, len(r))
		for j, c := range r {
			rows[i][j] = c.String()
		}
	}
	return rows
}

// MarshalJSON writes the rendered rows and, beside them, the numbers
// they were rendered from (null under a label, and for a ratio that
// came out non-finite, which JSON cannot carry).
func (t *Table) MarshalJSON() ([]byte, error) {
	values := make([][]*float64, len(t.Rows))
	for i, r := range t.Rows {
		values[i] = make([]*float64, len(r))
		for j := range r {
			if v := r[j].value; r[j].format != "" && !math.IsNaN(v) && !math.IsInf(v, 0) {
				values[i][j] = &r[j].value
			}
		}
	}
	return json.Marshal(struct {
		ID     string       `json:"id"`
		Title  string       `json:"title"`
		Header []string     `json:"header"`
		Rows   [][]string   `json:"rows"`
		Values [][]*float64 `json:"values"`
		Note   string       `json:"note,omitempty"`
	}{t.ID, t.Title, t.Header, t.text(), values, t.Note})
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
		{"a8", "Ablation: chunks decoded to rows vs read as blocks: cold n,L,Q builds and vectorized filter scans", runColumnarScan},
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
// each table as it completes, followed by the verdict of every paper
// claim whose source experiments have then all run.
func RunAll(cfg Config, ids []string) error {
	cfg = cfg.withDefaults()
	exps := All()
	if len(ids) > 0 {
		var sel []Experiment
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				known := make([]string, len(exps))
				for i, x := range exps {
					known[i] = x.ID
				}
				slices.Sort(known)
				return fmt.Errorf("harness: unknown experiment %q (known: %v)", id, known)
			}
			sel = append(sel, e)
		}
		exps = sel
	}
	ran := results{}
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
		ran[e.ID] = tables
		verdicts := checkClaims(ran, e.ID)
		if verdicts != nil {
			verdicts.Fprint(cfg.Out)
		}
		if cfg.JSONDir != "" {
			if err := writeJSON(cfg, e, tables, verdicts, time.Since(start)); err != nil {
				return fmt.Errorf("harness: %s: %w", e.ID, err)
			}
		}
		fmt.Fprintf(cfg.Out, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeJSON saves one experiment's tables, and the verdicts of the
// claims it completed, as <JSONDir>/BENCH_<id>.json.
func writeJSON(cfg Config, e Experiment, tables []*Table, verdicts *Table, elapsed time.Duration) error {
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
		Claims  *Table   `json:"claims,omitempty"`
	}{e.ID, e.Title, cfg.Scale, cfg.Runs, elapsed.Seconds(), tables, verdicts}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.JSONDir, "BENCH_"+e.ID+".json"), append(b, '\n'), 0o644)
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
	if len(t.Runs) == 0 {
		return 0
	}
	return slices.Min(t.Runs)
}

// Median is the middle run, the mean of the middle two for an even
// count (0 for an empty Timing).
func (t Timing) Median() time.Duration {
	if len(t.Runs) == 0 {
		return 0
	}
	runs := slices.Clone(t.Runs)
	slices.Sort(runs)
	m := len(runs) / 2
	if len(runs)%2 == 0 {
		return (runs[m-1] + runs[m]) / 2
	}
	return runs[m]
}

// Max is the slowest run.
func (t Timing) Max() time.Duration {
	if len(t.Runs) == 0 {
		return 0
	}
	return slices.Max(t.Runs)
}

// Seconds is the mean in seconds — the number figure series plot.
func (t Timing) Seconds() float64 { return t.Mean().Seconds() }

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
