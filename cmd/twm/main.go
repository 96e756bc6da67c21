// Command twm is a small warehouse-miner-style client for the embedded
// engine — the role Teradata Warehouse Miner plays in the paper: it
// generates SQL and UDF calls against the database, builds statistical
// models from the one-scan summary matrices, stores them in model
// tables and scores data sets.
//
// Subcommands (all take -dir for the database directory):
//
//	twm gen      -table X -n 100000 -d 8 [-k 16] [-noise 0.15] [-seed 1]
//	twm import   -table X -csv file.csv [-header]
//	twm summary  -table X -d 8 [-matrix triang] [-method udf|string|sql]
//	twm corr     -table X -d 8 [-top 10]
//	twm linreg   -table X -d 8 -y Y [-beta BETA]
//	twm pca      -table X -d 8 -k 2 [-basis corr|cov] [-mu MU] [-lambda LAMBDA]
//	twm kmeans   -table X -d 8 -k 4 [-incremental] [-c C] [-r R] [-w W]
//	twm score    -model reg|pca|cluster -table X -d 8 [-k 4] -out SCORES
//	twm export   -table X -out file.csv [-mbps 100] [-timescale 0]
//	twm sql      -q "SELECT ..."
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	statsudf "repro"
	"repro/internal/odbcsim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if err := run(cmd, args); err != nil {
		fmt.Fprintln(os.Stderr, "twm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: twm <gen|import|summary|corr|linreg|pca|kmeans|score|export|sql> [flags]
run "twm <subcommand> -h" for flags`)
}

// openFlags adds the flags every subcommand shares.
func openFlags(fs *flag.FlagSet) (dir *string, partitions *int) {
	dir = fs.String("dir", "twm-data", "database directory")
	partitions = fs.Int("partitions", 20, "table partitions")
	return
}

func open(dir string, partitions int) (*statsudf.DB, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return statsudf.Open(statsudf.Options{Dir: dir, Partitions: partitions})
}

func run(cmd string, args []string) error {
	switch cmd {
	case "gen":
		return cmdGen(args)
	case "import":
		return cmdImport(args)
	case "summary":
		return cmdSummary(args)
	case "corr":
		return cmdCorr(args)
	case "linreg":
		return cmdLinReg(args)
	case "pca":
		return cmdPCA(args)
	case "kmeans":
		return cmdKMeans(args)
	case "score":
		return cmdScore(args)
	case "export":
		return cmdExport(args)
	case "sql":
		return cmdSQL(args)
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table to create")
	n := fs.Int("n", 100000, "rows")
	d := fs.Int("d", 8, "dimensions")
	k := fs.Int("k", 16, "mixture components")
	noise := fs.Float64("noise", 0.15, "uniform noise fraction")
	seed := fs.Int64("seed", 1, "generator seed")
	withY := fs.Bool("with-y", false, "add a planted linear Y column")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	cfg := statsudf.MixtureConfig{N: *n, D: *d, K: *k, Noise: *noise, Seed: *seed}
	if *withY {
		beta := make([]float64, *d)
		for a := range beta {
			beta[a] = float64(a%5) - 2
		}
		if err := db.GenerateRegression(*table, cfg, 10, beta, 5); err != nil {
			return err
		}
	} else if err := db.Generate(*table, cfg); err != nil {
		return err
	}
	fmt.Printf("generated %s: n=%d d=%d k=%d noise=%g\n", *table, *n, *d, *k, *noise)
	return nil
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table to create")
	path := fs.String("csv", "", "CSV file to import")
	header := fs.Bool("header", true, "first row is a header")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("import: -csv is required")
	}
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := db.ImportCSV(*table, f, *header)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d rows into %s\n", n, *table)
	return nil
}

func parseMethod(s string) (statsudf.SummaryMethod, error) {
	switch s {
	case "udf", "list":
		return statsudf.ViaUDF, nil
	case "string":
		return statsudf.ViaUDFString, nil
	case "sql":
		return statsudf.ViaSQL, nil
	}
	return 0, fmt.Errorf("unknown method %q (udf|string|sql)", s)
}

func parseMatrix(s string) (statsudf.MatrixType, error) {
	switch s {
	case "diag":
		return statsudf.Diagonal, nil
	case "triang", "":
		return statsudf.Triangular, nil
	case "full":
		return statsudf.Full, nil
	}
	return 0, fmt.Errorf("unknown matrix type %q (diag|triang|full)", s)
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table to summarize")
	d := fs.Int("d", 8, "dimensions (columns X1..Xd)")
	matrix := fs.String("matrix", "triang", "diag|triang|full")
	method := fs.String("method", "udf", "udf|string|sql")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	mt, err := parseMatrix(*matrix)
	if err != nil {
		return err
	}
	m, err := parseMethod(*method)
	if err != nil {
		return err
	}
	s, err := db.Summary(*table, statsudf.DimColumns(*d), statsudf.SummaryOptions{Method: m, Matrix: mt})
	if err != nil {
		return err
	}
	fmt.Printf("n = %.0f\n", s.N)
	fmt.Print("L =")
	for _, v := range s.L {
		fmt.Printf(" %.4f", v)
	}
	fmt.Println()
	fmt.Println("Q =")
	for a := 0; a < s.D; a++ {
		for b := 0; b < s.D; b++ {
			fmt.Printf(" %12.4f", s.QAt(a, b))
		}
		fmt.Println()
	}
	return nil
}

func cmdCorr(args []string) error {
	fs := flag.NewFlagSet("corr", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table")
	d := fs.Int("d", 8, "dimensions")
	top := fs.Int("top", 10, "strongest pairs to print")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := db.Correlation(*table, statsudf.DimColumns(*d))
	if err != nil {
		return err
	}
	fmt.Printf("correlation matrix (%d×%d) from n=%.0f rows; strongest pairs:\n", m.D, m.D, m.N)
	for _, p := range m.StrongestPairs(*top) {
		fmt.Println(" ", p)
	}
	return nil
}

func cmdLinReg(args []string) error {
	fs := flag.NewFlagSet("linreg", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table")
	d := fs.Int("d", 8, "predictor dimensions")
	y := fs.String("y", "Y", "dependent column")
	betaTable := fs.String("beta", "BETA", "model table to store β in")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := db.LinearRegression(*table, statsudf.DimColumns(*d), *y)
	if err != nil {
		return err
	}
	fmt.Printf("beta0 = %.6f\n", m.Beta[0])
	for a := 1; a < len(m.Beta); a++ {
		fmt.Printf("beta%d = %.6f\n", a, m.Beta[a])
	}
	fmt.Printf("R² = %.4f, SSE = %.4f (n=%.0f)\n", m.R2, m.SSE, m.N)
	if err := db.StoreRegression(*betaTable, m); err != nil {
		return err
	}
	fmt.Printf("model stored in %s\n", *betaTable)
	return nil
}

func cmdPCA(args []string) error {
	fs := flag.NewFlagSet("pca", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table")
	d := fs.Int("d", 8, "dimensions")
	k := fs.Int("k", 2, "components")
	basis := fs.String("basis", "corr", "corr|cov")
	muTable := fs.String("mu", "MU", "mean model table")
	lambdaTable := fs.String("lambda", "LAMBDA", "loading model table")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	b := statsudf.CorrelationBasis
	if *basis == "cov" {
		b = statsudf.CovarianceBasis
	} else if *basis != "corr" {
		return fmt.Errorf("unknown basis %q (corr|cov)", *basis)
	}
	m, err := db.PCA(*table, statsudf.DimColumns(*d), *k, b)
	if err != nil {
		return err
	}
	fmt.Printf("PCA: k=%d, explained variance = %.2f%%\n", m.K, 100*m.ExplainedVariance())
	for j, ev := range m.Eigen {
		fmt.Printf("  component %d: eigenvalue %.4f\n", j+1, ev)
	}
	if err := db.StorePCA(*muTable, *lambdaTable, m); err != nil {
		return err
	}
	fmt.Printf("model stored in %s, %s\n", *muTable, *lambdaTable)
	return nil
}

func cmdKMeans(args []string) error {
	fs := flag.NewFlagSet("kmeans", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table")
	d := fs.Int("d", 8, "dimensions")
	k := fs.Int("k", 4, "clusters")
	incremental := fs.Bool("incremental", false, "single-scan incremental variant")
	seed := fs.Int64("seed", 1, "seeding")
	cT := fs.String("c", "C", "centroid table")
	rT := fs.String("r", "R", "radius table")
	wT := fs.String("w", "W", "weight table")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := db.KMeans(*table, statsudf.DimColumns(*d), *k,
		statsudf.KMeansOptions{Seed: *seed, Incremental: *incremental})
	if err != nil {
		return err
	}
	fmt.Printf("k-means: k=%d iters=%d SSE=%.2f\n", m.K, m.Iters, m.SSE)
	for j := 0; j < m.K; j++ {
		fmt.Printf("  cluster %d: W=%.3f C[0..2]=%.2f %.2f ...\n", j+1, m.W[j], m.C[j][0], m.C[j][min(1, m.D-1)])
	}
	if err := db.StoreKMeans(*cT, *rT, *wT, m); err != nil {
		return err
	}
	fmt.Printf("model stored in %s, %s, %s\n", *cT, *rT, *wT)
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	dir, parts := openFlags(fs)
	model := fs.String("model", "reg", "reg|pca|cluster")
	table := fs.String("table", "X", "data table")
	id := fs.String("id", "i", "id column")
	d := fs.Int("d", 8, "dimensions")
	k := fs.Int("k", 4, "components/clusters (pca, cluster)")
	out := fs.String("out", "SCORES", "output table")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	cols := statsudf.DimColumns(*d)
	var n int64
	switch *model {
	case "reg":
		n, err = db.ScoreRegression(*table, *id, cols, "BETA", *out)
	case "pca":
		n, err = db.ScorePCA(*table, *id, cols, "MU", "LAMBDA", *out, *k)
	case "cluster":
		n, err = db.ScoreKMeans(*table, *id, cols, "C", *out, *k)
	default:
		return fmt.Errorf("unknown model %q (reg|pca|cluster)", *model)
	}
	if err != nil {
		return err
	}
	fmt.Printf("scored %d rows into %s (one table scan)\n", n, *out)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir, parts := openFlags(fs)
	table := fs.String("table", "X", "table to export")
	out := fs.String("out", "export.csv", "output file")
	mbps := fs.Float64("mbps", 100, "modeled ODBC LAN bandwidth (megabits/s)")
	timescale := fs.Float64("timescale", 0, "fraction of the modeled delay actually slept")
	fs.Parse(args)
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	t, err := db.Engine().Table(*table)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := odbcsim.Export(t, f, odbcsim.Config{
		BytesPerSec: *mbps * 1e6 / 8,
		TimeScale:   *timescale,
	})
	if err != nil {
		return err
	}
	fmt.Printf("exported %d rows (%d payload bytes) in %v; modeled ODBC time %v\n",
		st.Rows, st.PayloadBytes, st.Elapsed.Round(1e6), st.Modeled.Round(1e6))
	return nil
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	dir, parts := openFlags(fs)
	q := fs.String("q", "", "statement to execute")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("sql: -q is required")
	}
	db, err := open(*dir, *parts)
	if err != nil {
		return err
	}
	defer db.Close()
	res, err := db.Exec(*q)
	if err != nil {
		return err
	}
	if res.Schema != nil {
		fmt.Println(strings.Join(res.Schema.Names(), " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
	} else {
		fmt.Printf("%d row(s) affected\n", res.Affected)
	}
	return nil
}
