package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/extern"
	"repro/internal/odbcsim"
	"repro/internal/sqlgen"
)

// dataset is what an experiment loads, once, before it times anything.
type dataset struct {
	n, dims int
	// models > 0 loads the regression workload X(i, X1..Xd, Y) and
	// trains and stores the three scorable models with k = models;
	// training is not part of any timed scoring run.
	models int
	// memory opens an in-memory engine (a6): point serving assumes a hot
	// working set, so the statement path, not the disk, is under test.
	memory bool
}

// env is one loaded dataset: the open database the arms run against.
type env struct {
	dataset
	cfg      Config
	db       *statsudf.DB
	cols     []string // X1..Xd
	dir      string   // scratch directory, removed with the env
	exported string   // the file exportX wrote, read by the external analyzer
}

// arm is one timed implementation: what a repetition runs over the data.
type arm struct {
	name string
	run  func(e *env) error
}

// datasetLoads counts loads; tests pin how many an experiment performs.
var datasetLoads atomic.Int64

// withDataset is the one way an experiment gets data: open a database
// through the shipped facade (the paper's parallelism, the UDFs
// installed), load ds into table X once — on disk, the load seals X's
// chunks as it commits — hand it to body, and remove whatever was
// created. Arms timed inside body share the load.
func withDataset(cfg Config, ds dataset, body func(e *env) error) error {
	scratch, err := os.MkdirTemp("", "statsudf-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	opts := statsudf.Options{Partitions: cfg.Partitions}
	if !ds.memory {
		if opts.Dir = cfg.Dir; opts.Dir == "" {
			opts.Dir = scratch
		}
	}
	d, err := statsudf.Open(opts)
	if err != nil {
		return err
	}
	defer d.Close()
	e := &env{dataset: ds, cfg: cfg, db: d, dir: scratch, cols: sqlgen.Dims(ds.dims)}
	datasetLoads.Add(1)
	if err := e.load(); err != nil {
		return err
	}
	return body(e)
}

// measure is withDataset for the plain grid cell: load ds, time each
// arm over it, return the timings in arm order.
func measure(cfg Config, ds dataset, arms ...arm) (ts []Timing, err error) {
	err = withDataset(cfg, ds, func(e *env) error {
		ts, err = e.time(arms...)
		return err
	})
	return ts, err
}

// time measures each arm over cfg.Runs repetitions.
func (e *env) time(arms ...arm) ([]Timing, error) {
	ts := make([]Timing, len(arms))
	for i, a := range arms {
		var err error
		if ts[i], err = timeIt(e.cfg, func() error { return a.run(e) }); err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return ts, nil
}

// load fills table X: the standard mixture, or the regression workload
// plus the facade's train-and-store sequence when the dataset carries
// models.
func (e *env) load() error {
	mix := statsudf.MixtureConfig{N: e.n, D: e.dims, Seed: e.cfg.Seed}
	if e.models == 0 {
		return e.db.Generate("X", mix)
	}
	// Regression data: planted linear model over the mixture points.
	beta := make([]float64, e.dims)
	for a := range beta {
		beta[a] = float64(a%5) - 2
	}
	if err := e.db.GenerateRegression("X", mix, 10, beta, 5); err != nil {
		return err
	}
	lr, err := e.db.LinearRegression("X", e.cols, "Y")
	if err != nil {
		return err
	}
	if err := e.db.StoreRegression("BETA", lr); err != nil {
		return err
	}
	pca, err := e.db.PCA("X", e.cols, min(e.models, e.dims-1), core.CorrelationBasis)
	if err != nil {
		return err
	}
	if err := e.db.StorePCA("MU", "LAMBDA", pca); err != nil {
		return err
	}
	// One incremental pass is enough for scoring benchmarks (the model
	// only supplies C).
	km, err := e.db.KMeans("X", e.cols, e.models, core.KMeansOptions{Seed: 7, Incremental: true})
	if err != nil {
		return err
	}
	return e.db.StoreKMeans("C", "R", "W", km)
}

// exportX exports table X to a file through the ODBC simulator — what
// the external analyzer reads — and returns the export statistics.
func (e *env) exportX(odbc odbcsim.Config) (odbcsim.Stats, error) {
	t, err := e.db.Engine().Table("X")
	if err != nil {
		return odbcsim.Stats{}, err
	}
	f, err := os.Create(filepath.Join(e.dir, "export.csv"))
	if err != nil {
		return odbcsim.Stats{}, err
	}
	e.exported = f.Name()
	st, err := odbcsim.Export(t, f, odbc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return st, err
}

// summarizer is one of the paper's ways to compute n, L, Q over X.
type summarizer struct {
	name string
	nlq  func(e *env) (*core.NLQ, error)
}

// methodNames label the facade's summary methods the way the paper does.
var methodNames = map[statsudf.SummaryMethod]string{statsudf.ViaSQL: "long SQL ", statsudf.ViaUDF: "UDF list ", statsudf.ViaUDFString: "UDF string "}

// viaFacade computes the summaries the way the facade's method says:
// the long SQL query, or the aggregate UDF with list or string
// parameter passing.
func viaFacade(via statsudf.SummaryMethod, mt core.MatrixType) summarizer {
	return summarizer{methodNames[via] + mt.String(), func(e *env) (*core.NLQ, error) {
		return e.db.Summary("X", e.cols, statsudf.SummaryOptions{Method: via, Matrix: mt})
	}}
}

// external is the paper's C++ comparator: the single-threaded analyzer
// re-reading the file exportX wrote, like the table scans re-read
// theirs.
var external = summarizer{"C++ on the exported file", func(e *env) (*core.NLQ, error) {
	f, err := os.Open(e.exported)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return extern.ComputeNLQ(f, e.dims, extern.Options{SkipLeadingID: true, MatrixType: core.Triangular})
}}

// arm times the summaries and, when build is not nil, the client-side
// model math on top of them.
func (s summarizer) arm(build func(*core.NLQ) error) arm {
	return arm{s.name, func(e *env) error {
		nlq, err := s.nlq(e)
		if err != nil || build == nil {
			return err
		}
		return build(nlq)
	}}
}

func sqlArm(mt core.MatrixType) arm    { return viaFacade(statsudf.ViaSQL, mt).arm(nil) }
func udfArm(mt core.MatrixType) arm    { return viaFacade(statsudf.ViaUDF, mt).arm(nil) }
func stringArm(mt core.MatrixType) arm { return viaFacade(statsudf.ViaUDFString, mt).arm(nil) }

// matrixArms is the UDF under each matrix type, in column order.
var matrixArms = []arm{udfArm(core.Diagonal), udfArm(core.Triangular), udfArm(core.Full)}

// groupByArm is Table 5's timed statement: the aggregate UDF under
// GROUP BY i % k in the given passing style, one row per group back.
// Both styles stop at counting rows, so neither pays a decode the
// other does not.
func groupByArm(dims, k int, style sqlgen.PassStyle) arm {
	sql := sqlgen.NLQUDFGroupQuery("X", sqlgen.Dims(dims), core.Diagonal, style, fmt.Sprintf("i %% %d", k))
	return arm{"t5 GROUP BY " + style.String(), func(e *env) error {
		res, err := e.db.Exec(sql)
		if err != nil {
			return err
		}
		if len(res.Rows) != k {
			return fmt.Errorf("harness: got %d groups, want %d", len(res.Rows), k)
		}
		return nil
	}}
}

// blockedArm is Table 6's timed statement: every nlq_block call of the
// d-dimensional plan in one statement (d = 64 included: one block, so
// the 1-call row is measured on the same path as the rest), decoded by
// the facade's blocked decoder. It also returns the number of calls.
func blockedArm(dims int) (arm, int, error) {
	plan, err := core.PlanBlocks(dims, core.MaxD)
	if err != nil {
		return arm{}, 0, err
	}
	sql := sqlgen.NLQBlockQuery("X", sqlgen.Dims(dims), plan)
	return arm{fmt.Sprintf("t6 blocked d=%d", dims), func(e *env) error {
		res, err := e.db.Exec(sql)
		if err != nil {
			return err
		}
		_, err = statsudf.DecodeBlockedSummary(res, plan)
		return err
	}}, plan.Calls(), nil
}

// perCellArm is §3.4's alternative to the long query: one statement per
// n, L and Q entry. It also returns the number of statements.
func perCellArm(dims int) (arm, int) {
	stmts := sqlgen.NLQQueriesPerCell("X", sqlgen.Dims(dims))
	return arm{"a2 per-cell", func(e *env) error { return execAll(e.db, stmts) }}, len(stmts)
}

// scoreArm streams one generated scoring SELECT and drops the rows.
func scoreArm(name string, gen func(e *env) string) arm {
	return arm{name, func(e *env) error { return discard(e.cfg, e.db, gen(e)) }}
}

// techniques are the three scorable models of Table 4 and Figure 6,
// each as SQL expressions and as a scalar UDF call.
var techniques = []struct {
	name     string
	sql, udf arm
}{
	{"linear regression",
		scoreArm("regression SQL", func(e *env) string { return sqlgen.RegScoreSQL("X", "BETA", "i", e.cols) }),
		scoreArm("regression UDF", func(e *env) string { return sqlgen.RegScoreUDF("X", "BETA", "i", e.cols) })},
	{"PCA",
		scoreArm("PCA SQL", func(e *env) string { return sqlgen.PCAScoreSQL("X", "MU", "LAMBDA", "i", e.cols, e.models) }),
		scoreArm("PCA UDF", func(e *env) string { return sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", e.cols, e.models) })},
	{"clustering",
		// The paper's two-scan SQL plan, end to end: distance table,
		// then the argmin CASE streamed out.
		arm{"clustering SQL", func(e *env) error {
			stmts := sqlgen.ClusterScoreSQL("X", "C", "XD", "i", e.cols, e.models)
			if err := execAll(e.db, stmts[:len(stmts)-1]); err != nil {
				return err
			}
			return discard(e.cfg, e.db, stmts[len(stmts)-1])
		}},
		scoreArm("clustering UDF", func(e *env) string { return sqlgen.ClusterScoreUDF("X", "C", "i", e.cols, e.models) })},
}

// discard streams query rows without retaining them; scoring
// benchmarks measure the scan+compute cost, not materialization. The
// run context cancels the scan mid-statement (graceful bench shutdown).
func discard(cfg Config, d *statsudf.DB, sql string) error {
	_, _, err := d.Engine().QueryStreamContext(cfg.ctx(), sql, func(sqltypes.Row) error { return nil })
	return err
}

// execAll runs the statements in order, dropping their results.
func execAll(d *statsudf.DB, stmts []string) error {
	for _, s := range stmts {
		if _, err := d.Exec(s); err != nil {
			return err
		}
	}
	return nil
}
