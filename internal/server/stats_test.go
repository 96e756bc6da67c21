package server

import (
	"context"
	"testing"

	statsudf "repro"
	"repro/internal/sqlgen"
)

// BenchmarkStatsJSON prices the executor statistics every Done frame
// carries, for serve_point's request: the point scoring SELECT over a
// 128-row, d = 32 table of 4 partitions. It reports the JSON's bytes
// per frame beside the time to marshal it.
func BenchmarkStatsJSON(b *testing.B) {
	sd, err := statsudf.Open(statsudf.Options{Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer sd.Close()
	const d = 32
	beta := make([]float64, d)
	for a := range beta {
		beta[a] = float64(a%5) - 2
	}
	if err := sd.GenerateRegression("X", statsudf.MixtureConfig{N: 128, D: d, Seed: 1}, 10, beta, 5); err != nil {
		b.Fatal(err)
	}
	cols := statsudf.DimColumns(d)
	m, err := sd.LinearRegression("X", cols, "Y")
	if err != nil {
		b.Fatal(err)
	}
	if err := sd.StoreRegression("BETA", m); err != nil {
		b.Fatal(err)
	}
	res, err := sd.Engine().ExecContext(context.Background(), sqlgen.RegScoreUDF("X", "BETA", "i", cols)+" WHERE X.i = 7")
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Rows) != 1 {
		b.Fatalf("point query returned %d rows", len(res.Rows))
	}
	var js string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		js = statsJSON(res.Stats)
	}
	b.ReportMetric(float64(len(js)), "B/frame")
}
