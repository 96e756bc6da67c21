package statsudf

// Benchmarks: one per paper table and figure (Tables 1-6, Figures
// 1-6). Each runs a representative configuration of the corresponding
// experiment at benchmark-friendly sizes; the full sweeps with the
// paper's exact grids live in cmd/bench (internal/harness).
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/extern"
	"repro/internal/odbcsim"
	"repro/internal/sqlgen"
)

const (
	benchN = 20000
	benchD = 32
	benchK = 16
)

// benchDB builds an on-disk database with the standard workload; the
// heavy setup runs outside the timed region.
func benchDB(b *testing.B, n, d int) *DB {
	b.Helper()
	db, err := Open(Options{Dir: b.TempDir(), Partitions: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Generate("X", MixtureConfig{N: n, D: d, Seed: 2007}); err != nil {
		b.Fatal(err)
	}
	return db
}

func summarize(b *testing.B, db *DB, d int, method SummaryMethod, mt MatrixType) {
	b.Helper()
	if _, err := db.Summary("X", DimColumns(d), SummaryOptions{Method: method, Matrix: mt}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable1 — total model-building time (summaries + model math)
// per implementation at d=32.
func BenchmarkTable1BuildModels(b *testing.B) {
	db := benchDB(b, benchN, benchD)
	exportPath := filepath.Join(b.TempDir(), "x.csv")
	exportTable(b, db, exportPath)

	buildFrom := func(s *NLQ) {
		if _, err := BuildCorrelationFrom(s); err != nil {
			b.Fatal(err)
		}
		if _, err := BuildPCAFrom(s, benchK, CorrelationBasis); err != nil {
			b.Fatal(err)
		}
		if _, err := BuildLinRegFrom(s); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cpp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(exportPath)
			if err != nil {
				b.Fatal(err)
			}
			s, err := extern.ComputeNLQ(f, benchD, extern.Options{SkipLeadingID: true})
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			buildFrom(s)
		}
	})
	b.Run("sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := db.Summary("X", DimColumns(benchD), SummaryOptions{Method: ViaSQL})
			if err != nil {
				b.Fatal(err)
			}
			buildFrom(s)
		}
	})
	b.Run("udf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := db.Summary("X", DimColumns(benchD), SummaryOptions{Method: ViaUDF})
			if err != nil {
				b.Fatal(err)
			}
			buildFrom(s)
		}
	})
}

func exportTable(b *testing.B, db *DB, path string) {
	b.Helper()
	t, err := db.Engine().Table("X")
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := odbcsim.Export(t, f, odbcsim.Config{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2 — the n,L,Q kernel per implementation, plus the ODBC
// export itself.
func BenchmarkTable2SummaryKernels(b *testing.B) {
	db := benchDB(b, benchN, benchD)
	exportPath := filepath.Join(b.TempDir(), "x.csv")
	exportTable(b, db, exportPath)
	b.Run("cpp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(exportPath)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := extern.ComputeNLQ(f, benchD, extern.Options{SkipLeadingID: true}); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	b.Run("sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			summarize(b, db, benchD, ViaSQL, Triangular)
		}
	})
	b.Run("udf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			summarize(b, db, benchD, ViaUDF, Triangular)
		}
	})
	b.Run("odbc-export", func(b *testing.B) {
		t, err := db.Engine().Table("X")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			f, err := os.Create(exportPath)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := odbcsim.Export(t, f, odbcsim.Config{}); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
}

// BenchmarkTable3 — model construction given n, L, Q (no data access).
func BenchmarkTable3ModelsFromSummaries(b *testing.B) {
	db := benchDB(b, benchN, benchD)
	s, err := db.Summary("X", DimColumns(benchD), SummaryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("correlation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildCorrelationFrom(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linreg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildLinRegFrom(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildPCAFrom(s, benchK, CorrelationBasis); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// scoringDB builds a database with trained, stored models.
func scoringDB(b *testing.B, n, d, k int) *DB {
	b.Helper()
	db, err := Open(Options{Dir: b.TempDir(), Partitions: 8})
	if err != nil {
		b.Fatal(err)
	}
	beta := make([]float64, d)
	for a := range beta {
		beta[a] = float64(a%3) - 1
	}
	if err := db.GenerateRegression("X", MixtureConfig{N: n, D: d, Seed: 3}, 5, beta, 2); err != nil {
		b.Fatal(err)
	}
	reg, err := db.LinearRegression("X", DimColumns(d), "Y")
	if err != nil {
		b.Fatal(err)
	}
	if err := db.StoreRegression("BETA", reg); err != nil {
		b.Fatal(err)
	}
	pca, err := db.PCA("X", DimColumns(d), k, CorrelationBasis)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.StorePCA("MU", "LAMBDA", pca); err != nil {
		b.Fatal(err)
	}
	km, err := db.KMeans("X", DimColumns(d), k, KMeansOptions{Seed: 5, Incremental: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.StoreKMeans("C", "R", "W", km); err != nil {
		b.Fatal(err)
	}
	return db
}

func streamDiscard(b *testing.B, db *DB, sql string) {
	b.Helper()
	if _, err := db.Engine().QueryStream(sql, func(sqltypes.Row) error { return nil }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable4 — scoring SQL vs UDF for the three techniques.
func BenchmarkTable4Scoring(b *testing.B) {
	db := scoringDB(b, benchN, benchD, benchK)
	dims := sqlgen.Dims(benchD)
	cases := []struct {
		name, sql string
	}{
		{"reg-sql", sqlgen.RegScoreSQL("X", "BETA", "i", dims)},
		{"reg-udf", sqlgen.RegScoreUDF("X", "BETA", "i", dims)},
		{"pca-sql", sqlgen.PCAScoreSQL("X", "MU", "LAMBDA", "i", dims, benchK)},
		{"pca-udf", sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", dims, benchK)},
		{"cluster-udf", sqlgen.ClusterScoreUDF("X", "C", "i", dims, benchK)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				streamDiscard(b, db, c.sql)
			}
		})
	}
	b.Run("cluster-sql", func(b *testing.B) {
		stmts := sqlgen.ClusterScoreSQL("X", "C", "XD", "i", dims, benchK)
		for i := 0; i < b.N; i++ {
			for _, s := range stmts[:len(stmts)-1] {
				if _, err := db.Exec(s); err != nil {
					b.Fatal(err)
				}
			}
			streamDiscard(b, db, stmts[len(stmts)-1])
		}
	})
}

// BenchmarkTable5 — the GROUP BY aggregate UDF, string vs list.
func BenchmarkTable5GroupBy(b *testing.B) {
	db := benchDB(b, benchN, benchD)
	for _, style := range []sqlgen.PassStyle{sqlgen.StringStyle, sqlgen.ListStyle} {
		b.Run(style.String(), func(b *testing.B) {
			sql := sqlgen.NLQUDFGroupQuery("X", sqlgen.Dims(benchD), core.Diagonal, style, "i % 8")
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable6 — blocked computation beyond MAX_d.
func BenchmarkTable6BlockedHighD(b *testing.B) {
	const d = 128 // 3 block calls
	db := benchDB(b, 5000, d)
	for i := 0; i < b.N; i++ {
		if _, err := db.Summary("X", DimColumns(d), SummaryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 — SQL vs UDF at low and high d (the crossover).
func BenchmarkFigure1SQLvsUDF(b *testing.B) {
	for _, d := range []int{8, 64} {
		db := benchDB(b, benchN, d)
		b.Run(fmt.Sprintf("sql-d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summarize(b, db, d, ViaSQL, Triangular)
			}
		})
		b.Run(fmt.Sprintf("udf-d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summarize(b, db, d, ViaUDF, Triangular)
			}
		})
	}
}

// BenchmarkFigure2 — growth in d for both implementations.
func BenchmarkFigure2VaryingD(b *testing.B) {
	for _, d := range []int{16, 32, 64} {
		db := benchDB(b, benchN/2, d)
		b.Run(fmt.Sprintf("sql-d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summarize(b, db, d, ViaSQL, Triangular)
			}
		})
		b.Run(fmt.Sprintf("udf-d%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summarize(b, db, d, ViaUDF, Triangular)
			}
		})
	}
}

// BenchmarkFigure3 — parameter passing styles.
func BenchmarkFigure3ParameterPassing(b *testing.B) {
	db := benchDB(b, benchN, benchD)
	b.Run("string", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			summarize(b, db, benchD, ViaUDFString, Triangular)
		}
	})
	b.Run("list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			summarize(b, db, benchD, ViaUDF, Triangular)
		}
	})
}

// BenchmarkFigure4 — diagonal vs triangular vs full matrices.
func BenchmarkFigure4MatrixTypes(b *testing.B) {
	db := benchDB(b, benchN, 64)
	for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
		b.Run(mt.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summarize(b, db, 64, ViaUDF, mt)
			}
		})
	}
}

// BenchmarkFigure5 — the UDF kernel across the n×d×type grid corners.
func BenchmarkFigure5Complexity(b *testing.B) {
	for _, cfg := range []struct{ n, d int }{{benchN / 2, 32}, {benchN, 32}, {benchN / 2, 64}, {benchN, 64}} {
		db := benchDB(b, cfg.n, cfg.d)
		for _, mt := range []MatrixType{Diagonal, Full} {
			b.Run(fmt.Sprintf("n%d-d%d-%s", cfg.n, cfg.d, mt), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					summarize(b, db, cfg.d, ViaUDF, mt)
				}
			})
		}
	}
}

// BenchmarkFigure6 — scoring throughput per technique.
func BenchmarkFigure6ScoringUDFs(b *testing.B) {
	db := scoringDB(b, benchN, benchD, benchK)
	dims := sqlgen.Dims(benchD)
	cases := []struct {
		name, sql string
	}{
		{"linreg", sqlgen.RegScoreUDF("X", "BETA", "i", dims)},
		{"pca", sqlgen.PCAScoreUDF("X", "MU", "LAMBDA", "i", dims, benchK)},
		{"clustering", sqlgen.ClusterScoreUDF("X", "C", "i", dims, benchK)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				streamDiscard(b, db, c.sql)
			}
		})
	}
}

// Micro-benchmarks of the core kernel: the per-row cost the aggregate
// UDF pays, swept over d for each matrix type (the paper's
// operation-count story). GFLOP/s counts the Q update alone — one
// multiply and one add per maintained slot: d, d(d+1)/2 or d² slots —
// which is the bound the perf ledger's core.update_gflops is read
// against.
func BenchmarkNLQUpdate(b *testing.B) {
	for _, d := range []int{8, 32, 64} {
		x := make([]float64, d)
		for i := range x {
			x[i] = float64(i) * 1.1
		}
		for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
			slots := map[MatrixType]int{Diagonal: d, Triangular: d * (d + 1) / 2, Full: d * d}[mt]
			b.Run(fmt.Sprintf("d=%d/%s", d, mt), func(b *testing.B) {
				s := core.MustNLQ(d, mt)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.Update(x); err != nil {
						b.Fatal(err)
					}
				}
				nsPerPoint := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(nsPerPoint, "ns/point")
				b.ReportMetric(2*float64(slots)/nsPerPoint, "GFLOP/s")
			})
		}
	}
}

// BenchmarkPackUnpack — the packed-string result codec.
func BenchmarkPackUnpack(b *testing.B) {
	s := core.MustNLQ(32, Triangular)
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i)
	}
	for i := 0; i < 100; i++ {
		s.Update(x)
	}
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Pack()
		}
	})
	packed := s.Pack()
	b.Run("unpack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Unpack(packed); err != nil {
				b.Fatal(err)
			}
		}
	})
}
