// Package statsudf is a from-scratch reproduction of "Building
// Statistical Models and Scoring with UDFs" (Ordonez, SIGMOD 2007): an
// embedded parallel relational engine with scalar and aggregate
// User-Defined Functions, one-scan computation of the sufficient-
// statistic summary matrices n, L, Q, and the four linear statistical
// models built from them — correlation, linear regression, PCA/factor
// analysis and K-means clustering — plus single-scan scoring of data
// sets against stored models.
//
// The typical flow mirrors the paper:
//
//	db, _ := statsudf.Open(statsudf.Options{})
//	db.Generate("X", statsudf.MixtureConfig{N: 100000, D: 16})
//	nlq, _ := db.Summary("X", statsudf.DimColumns(16), statsudf.SummaryOptions{})
//	corr, _ := core model from nlq ... or directly:
//	model, _ := db.Correlation("X", statsudf.DimColumns(16))
//
// The heavy pass over the data runs inside the engine (SQL or UDF, one
// table scan); the d×d model math runs in the client, exactly as the
// paper splits the work.
package statsudf

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/nlqudf"
	"repro/internal/score"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

// Re-exported model and statistics types: the public API surface is
// this root package; internal packages stay internal.
type (
	// NLQ is the summary-statistics accumulator (n, L, Q, min/max).
	NLQ = core.NLQ
	// CorrelationModel is the d×d Pearson correlation matrix.
	CorrelationModel = core.CorrelationModel
	// LinRegModel is the least-squares linear regression model.
	LinRegModel = core.LinRegModel
	// PCAModel is the principal component dimensionality reduction.
	PCAModel = core.PCAModel
	// FactorModel is maximum-likelihood factor analysis fit by EM.
	FactorModel = core.FactorModel
	// KMeansModel is the K-means clustering model (C, R, W).
	KMeansModel = core.KMeansModel
	// EMModel is the Gaussian-mixture clustering model.
	EMModel = core.EMModel
	// MatrixType selects diagonal/triangular/full Q maintenance.
	MatrixType = core.MatrixType
	// PCABasis selects the correlation or covariance basis.
	PCABasis = core.PCABasis
	// KMeansOptions tunes clustering.
	KMeansOptions = core.KMeansOptions
	// FactorOptions tunes the EM factor-analysis fit.
	FactorOptions = core.FactorOptions
	// EMOptions tunes EM clustering.
	EMOptions = core.EMOptions
	// MixtureConfig describes the synthetic mixture workload.
	MixtureConfig = synth.Config
	// Result is a materialized SQL result set.
	Result = exec.Result
	// Stats are one query's execution statistics: rows scanned, bytes
	// read, per-partition row counts and the aggregate protocol's
	// phase timings.
	Stats = exec.Stats
	// Row is one SQL result row.
	Row = sqltypes.Row
	// Value is one SQL value.
	Value = sqltypes.Value
	// QueryRecord is one entry in the recent-query ring (sys.queries).
	QueryRecord = db.QueryRecord
	// DebugServer is the diagnostics HTTP endpoint started by ServeDebug.
	DebugServer = db.DebugServer
)

// Matrix type and basis constants, re-exported.
const (
	Diagonal   = core.Diagonal
	Triangular = core.Triangular
	Full       = core.Full

	CorrelationBasis = core.CorrelationBasis
	CovarianceBasis  = core.CovarianceBasis
)

// MaxD is the per-UDF-call dimensionality bound implied by the 64 KB
// aggregate heap segment; higher d uses the blocked computation.
const MaxD = core.MaxD

// Value constructors for building rows programmatically.
var (
	// NewDouble wraps a float64 as a SQL DOUBLE.
	NewDouble = sqltypes.NewDouble
	// NewBigInt wraps an int64 as a SQL BIGINT.
	NewBigInt = sqltypes.NewBigInt
	// NewVarChar wraps a string as a SQL VARCHAR.
	NewVarChar = sqltypes.NewVarChar
	// Null is the SQL NULL value.
	Null = sqltypes.Null
)

// Options configure an embedded database instance.
type Options struct {
	// Dir stores table partitions on disk (scanned, never cached);
	// empty keeps tables in memory.
	Dir string
	// Partitions is the engine parallelism (default 20, the paper's
	// Teradata thread count).
	Partitions int
	// Workers caps a scan's workers below the partition count; <= 0
	// sets no cap. Under the caps a scan runs one worker per 2048-row
	// chunk it reads, the calling goroutine first, so a table of as
	// many chunks as partitions gets one worker per partition.
	Workers int
	// SlowQuery is the duration at or above which a statement is
	// flagged slow in sys.queries; zero selects the engine default
	// (250ms).
	SlowQuery time.Duration
	// TraceSampleN keeps 1-in-N healthy traces in sys.traces (error
	// and slow traces are always kept); zero selects the engine
	// default (16), 1 keeps everything.
	TraceSampleN int
	// TraceCap bounds retained traces per class (error/slow/sampled);
	// zero selects the engine default (128).
	TraceCap int
	// Deprecated: ignored. Scans of an on-disk table read its rows as
	// blocks of its sealed column chunks wherever they are eligible.
	Columnar bool
}

// DB is an embedded analytic database with the paper's UDFs installed.
type DB struct {
	eng *db.DB
}

// Open creates a database and registers the aggregate summary UDFs
// (nlq_list, nlq_str, nlq_block) and the scoring scalar UDFs
// (linearregscore, fascore, kdistance, clusterscore).
func Open(opts Options) (*DB, error) {
	eng, err := db.OpenDir(db.Options{
		Dir: opts.Dir, Partitions: opts.Partitions, Workers: opts.Workers,
		SlowQuery: opts.SlowQuery, TraceSampleN: opts.TraceSampleN, TraceCap: opts.TraceCap,
	})
	if err != nil {
		return nil, err
	}
	if err := nlqudf.Register(eng); err != nil {
		return nil, err
	}
	if err := score.Register(eng); err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close releases the instance (tables on disk persist until dropped).
func (d *DB) Close() error { return d.eng.Close() }

// Engine exposes the underlying engine for advanced use (custom UDF
// registration, streaming queries).
func (d *DB) Engine() *db.DB { return d.eng }

// Exec parses and runs one SQL statement.
func (d *DB) Exec(sql string) (*Result, error) { return d.eng.Exec(sql) }

// ExecContext parses and runs one SQL statement; cancelling ctx stops
// in-flight partition scans between rows.
func (d *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return d.eng.ExecContext(ctx, sql)
}

// ExecScript runs a semicolon-separated script, returning the last
// result.
func (d *DB) ExecScript(sql string) (*Result, error) { return d.eng.ExecScript(sql) }

// RecentQueries returns the retained recent statements, newest first —
// the same data `SELECT * FROM sys.queries` serves.
func (d *DB) RecentQueries() []QueryRecord { return d.eng.RecentQueries() }

// ServeDebug starts an HTTP diagnostics endpoint on addr (e.g.
// "localhost:6060"): /metrics serves the engine metrics in Prometheus
// text format, /debug/queries the recent-query ring as JSON, and
// /debug/pprof/ the standard Go profilers. Close the returned server
// to release the port.
func (d *DB) ServeDebug(addr string) (*DebugServer, error) { return d.eng.ServeDebug(addr) }

// DimColumns returns the conventional dimension column names X1..Xd.
func DimColumns(d int) []string { return sqlgen.Dims(d) }

// Generate creates (or replaces) a table with the paper's synthetic
// mixture workload, laid out as X(i, X1..Xd).
func (d *DB) Generate(table string, cfg MixtureConfig) error {
	return synth.LoadTable(d.eng, table, cfg)
}

// GenerateRegression creates X(i, X1..Xd, Y) with a planted linear
// model Y = beta0 + betaᵀx + noise.
func (d *DB) GenerateRegression(table string, cfg MixtureConfig, beta0 float64, beta []float64, noiseSD float64) error {
	return synth.LoadRegressionTable(d.eng, table, cfg, beta0, beta, noiseSD)
}

// SummaryMethod selects how the summaries are computed in-engine.
type SummaryMethod int

const (
	// ViaUDF uses the aggregate UDF with list parameter passing (the
	// paper's fastest path); the default.
	ViaUDF SummaryMethod = iota
	// ViaUDFString uses the packed-string parameter passing.
	ViaUDFString
	// ViaSQL uses the long 1+d+d² plain SQL query.
	ViaSQL
	// ViaCache serves the engine's summary catalog: a warm entry returns
	// in O(d²) with zero partition scans, or reads only the rows appended
	// since its last read; a cold one pays a single parallel scan.
	// WHERE filters are not cacheable and are rejected.
	ViaCache
)

// SummaryOptions tune Summary.
type SummaryOptions struct {
	Method SummaryMethod
	// Matrix selects diagonal/triangular/full Q; default Triangular.
	Matrix MatrixType
	// Where optionally filters rows (a SQL boolean expression).
	Where string
}

// Summary computes n, L, Q over the named columns in one table scan.
// Columns beyond MaxD automatically use the blocked computation
// (multiple UDF calls, still one scan).
func (d *DB) Summary(table string, columns []string, opts SummaryOptions) (*NLQ, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("statsudf: no columns given")
	}
	if opts.Method == ViaCache {
		if opts.Where != "" {
			return nil, fmt.Errorf("statsudf: the summary cache cannot serve WHERE-filtered summaries")
		}
		return d.cachedSummary(table, columns, opts.Matrix)
	}
	if len(columns) > MaxD {
		if opts.Method == ViaSQL || opts.Method == ViaUDFString {
			return nil, fmt.Errorf("statsudf: d=%d > %d requires the blocked UDF method", len(columns), MaxD)
		}
		return d.blockedSummary(table, columns, opts.Where)
	}
	mt := opts.Matrix
	var sql string
	switch opts.Method {
	case ViaUDF:
		sql = sqlgen.NLQUDFQuery(table, columns, mt, sqlgen.ListStyle)
	case ViaUDFString:
		sql = sqlgen.NLQUDFQuery(table, columns, mt, sqlgen.StringStyle)
	case ViaSQL:
		sql = sqlgen.NLQQuery(table, columns, mt)
	default:
		return nil, fmt.Errorf("statsudf: unknown summary method %d", opts.Method)
	}
	res, err := d.eng.Exec(appendWhere(sql, opts.Where))
	if err != nil {
		return nil, err
	}
	if opts.Method == ViaSQL {
		if len(res.Rows) != 1 {
			return nil, fmt.Errorf("statsudf: SQL summary returned %d rows, want 1", len(res.Rows))
		}
		return sqlgen.DecodeNLQRow(res.Rows[0], len(columns), mt)
	}
	v, err := res.Value()
	if err != nil {
		return nil, err
	}
	if v.IsNull() {
		return nil, fmt.Errorf("statsudf: table %q has no qualifying rows", table)
	}
	return core.Unpack(v.Str())
}

// GroupedSummary computes one summary per group of groupExpr (e.g.
// "i % 16" or a column name), keyed by the group value's string form.
func (d *DB) GroupedSummary(table string, columns []string, mt MatrixType, groupExpr string) (map[string]*NLQ, error) {
	if len(columns) > MaxD {
		return nil, fmt.Errorf("statsudf: grouped summaries support at most d=%d", MaxD)
	}
	res, err := d.eng.Exec(sqlgen.NLQUDFGroupQuery(table, columns, mt, sqlgen.ListStyle, groupExpr))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*NLQ, len(res.Rows))
	err = eachGroup(res, func(key Value, s *NLQ) error {
		out[key.String()] = s
		return nil
	})
	return out, err
}

// eachGroup decodes a grouped aggregate-UDF result — rows of (group
// key, packed n/L/Q) — calling fn once per group that had qualifying
// rows.
func eachGroup(res *Result, fn func(key Value, s *NLQ) error) error {
	for _, row := range res.Rows {
		if row[1].IsNull() {
			continue
		}
		s, err := core.Unpack(row[1].Str())
		if err != nil {
			return err
		}
		if err := fn(row[0], s); err != nil {
			return err
		}
	}
	return nil
}

func appendWhere(sql, where string) string {
	if where == "" {
		return sql
	}
	// The generated summary queries end in "FROM <table>"; a direct
	// suffix is safe for them (GROUP BY queries are not routed here).
	return sql + " WHERE " + where
}

// blockedSummary computes a full-matrix NLQ for d > MaxD via the
// paper's partitioned UDF calls in a single synchronized scan.
func (d *DB) blockedSummary(table string, columns []string, where string) (*NLQ, error) {
	plan, err := core.PlanBlocks(len(columns), MaxD)
	if err != nil {
		return nil, err
	}
	res, err := d.eng.Exec(appendWhere(sqlgen.NLQBlockQuery(table, columns, plan), where))
	if err != nil {
		return nil, err
	}
	return DecodeBlockedSummary(res, plan)
}

// DecodeBlockedSummary assembles the result of sqlgen.NLQBlockQuery —
// one row holding one packed nlq_block value per call of plan — into
// the full-matrix NLQ.
func DecodeBlockedSummary(res *Result, plan *core.BlockPlan) (*NLQ, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != plan.Calls() {
		return nil, fmt.Errorf("statsudf: blocked summary result does not match the %d-call plan", plan.Calls())
	}
	parts := make([]*core.BlockResult, plan.Calls())
	for i, v := range res.Rows[0] {
		if v.IsNull() {
			return nil, fmt.Errorf("statsudf: blocked summary over no qualifying rows")
		}
		_, r, err := nlqudf.UnpackBlock(v.Str())
		if err != nil {
			return nil, err
		}
		parts[i] = r
	}
	return plan.Assemble(parts)
}

// cachedSummary serves Summary's ViaCache method from the engine's
// incremental catalog.
func (d *DB) cachedSummary(table string, columns []string, mt MatrixType) (*NLQ, error) {
	s, _, err := d.eng.SummaryNLQ(context.Background(), table, columns, mt)
	return s, err
}

// modelSummary feeds the model builders: base tables go through the
// incremental summary cache (zero scans when the entry is warm), while
// views, sys. tables and dimensionalities beyond the cache's reach
// fall back to the one-scan aggregate UDF.
func (d *DB) modelSummary(table string, columns []string, mt MatrixType) (*NLQ, error) {
	if d.eng.HasTable(table) && len(columns) <= MaxD {
		return d.cachedSummary(table, columns, mt)
	}
	return d.Summary(table, columns, SummaryOptions{Matrix: mt})
}

// Correlation builds the correlation model over the named columns.
func (d *DB) Correlation(table string, columns []string) (*CorrelationModel, error) {
	s, err := d.modelSummary(table, columns, Triangular)
	if err != nil {
		return nil, err
	}
	return core.BuildCorrelation(s)
}

// LinearRegression fits Y = β₀ + βᵀx by least squares, where yColumn
// names the dependent variable. The summaries are computed in one
// scan; a second scan fills in SSE, R² and var(β), matching the
// paper's two-scan regression analysis.
func (d *DB) LinearRegression(table string, xColumns []string, yColumn string) (*LinRegModel, error) {
	aug := append(append([]string{}, xColumns...), yColumn)
	s, err := d.modelSummary(table, aug, Triangular)
	if err != nil {
		return nil, err
	}
	m, err := core.BuildLinReg(s)
	if err != nil {
		return nil, err
	}
	src, err := d.columnsSource(table, aug)
	if err != nil {
		return nil, err
	}
	if err := m.FitStatistics(src, s); err != nil {
		return nil, err
	}
	return m, nil
}

// PCA builds the top-k principal components over the named columns.
func (d *DB) PCA(table string, columns []string, k int, basis PCABasis) (*PCAModel, error) {
	s, err := d.modelSummary(table, columns, Triangular)
	if err != nil {
		return nil, err
	}
	return core.BuildPCA(s, k, basis)
}

// FactorAnalysis fits a k-factor maximum-likelihood model by EM on the
// covariance matrix derived from one scan's summaries.
func (d *DB) FactorAnalysis(table string, columns []string, k int, opts FactorOptions) (*FactorModel, error) {
	s, err := d.modelSummary(table, columns, Triangular)
	if err != nil {
		return nil, err
	}
	return core.BuildFactorAnalysis(s, k, opts)
}

// KMeans clusters the named columns into k clusters. The standard
// variant scans the table once per iteration; opts.Incremental gets a
// single-scan approximate solution, as §3.1 discusses. For base
// tables, initial centroids are seeded from the cached diagonal
// summary (zero scans) unless opts.InitialCentroids already provides
// them; non-cacheable sources keep the seeding scan.
func (d *DB) KMeans(table string, columns []string, k int, opts KMeansOptions) (*KMeansModel, error) {
	src, err := d.columnsSource(table, columns)
	if err != nil {
		return nil, err
	}
	if opts.InitialCentroids == nil {
		cents, err := d.seedCentroids(table, columns, k, opts.Seed)
		if err != nil {
			return nil, err
		}
		opts.InitialCentroids = cents
	}
	return core.BuildKMeans(src, k, opts)
}

// seedCentroids places k starting centroids for the clustering entry
// points: base tables within the cache's dimensionality are seeded
// from the cached diagonal summary — zero extra scans — while views
// and other non-cacheable sources keep the deterministic
// farthest-point seeding scan. Both the client-side KMeans and
// KMeansInEngine go through here, so the two variants start from the
// same solution.
func (d *DB) seedCentroids(table string, columns []string, k int, seed int64) ([][]float64, error) {
	if d.eng.HasTable(table) && len(columns) <= MaxD {
		// Best-effort: a summary the cache cannot maintain (e.g. a
		// non-numeric column) just falls back to the seeding scan.
		if s, err := d.cachedSummary(table, columns, Diagonal); err == nil {
			if cents, err := core.SeedCentroidsFromSummary(s, k); err == nil {
				return cents, nil
			}
		}
	}
	src, err := d.columnsSource(table, columns)
	if err != nil {
		return nil, err
	}
	return core.SeedCentroids(src, k, seed)
}

// EMCluster fits a diagonal Gaussian mixture over the named columns.
func (d *DB) EMCluster(table string, columns []string, k int, opts EMOptions) (*EMModel, error) {
	src, err := d.columnsSource(table, columns)
	if err != nil {
		return nil, err
	}
	return core.BuildEM(src, k, opts)
}

// columnsSource adapts named table columns to the core.Source scans.
func (d *DB) columnsSource(table string, columns []string) (core.Source, error) {
	t, err := d.eng.Table(table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	idx := make([]int, len(columns))
	for i, c := range columns {
		j := schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("statsudf: table %q has no column %q", table, c)
		}
		idx[i] = j
	}
	return &colSource{d: d, table: strings.ToLower(table), idx: idx}, nil
}

type colSource struct {
	d     *DB
	table string
	idx   []int
}

func (s *colSource) Dims() int { return len(s.idx) }

func (s *colSource) Scan(fn func(x []float64) error) error {
	t, err := s.d.eng.Table(s.table)
	if err != nil {
		return err
	}
	x := make([]float64, len(s.idx))
	return t.Scan(func(r Row) error {
		for i, j := range s.idx {
			f, ok := r[j].Float()
			if !ok {
				return fmt.Errorf("statsudf: non-numeric value %v in column %d", r[j], j)
			}
			x[i] = f
		}
		return fn(x)
	})
}
