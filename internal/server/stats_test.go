package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	statsudf "repro"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
	"repro/pkg/client"
)

// servePointRows is the table serve_point scores: 128 rows, d = 32,
// over 4 partitions.
const servePointRows = 128

// openServePoint opens serve_point's engine: the table X, its stored
// regression model BETA, and the point scoring SELECT without its
// WHERE.
func openServePoint(b *testing.B) (*statsudf.DB, string) {
	b.Helper()
	sd, err := statsudf.Open(statsudf.Options{Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sd.Close() })
	const d = 32
	beta := make([]float64, d)
	for a := range beta {
		beta[a] = float64(a%5) - 2
	}
	if err := sd.GenerateRegression("X", statsudf.MixtureConfig{N: servePointRows, D: d, Seed: 1}, 10, beta, 5); err != nil {
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
	return sd, sqlgen.RegScoreUDF("X", "BETA", "i", cols)
}

// BenchmarkStatsJSON prices the executor statistics every Done frame
// carries, for serve_point's request: the point scoring SELECT over a
// 128-row, d = 32 table of 4 partitions. It reports the JSON's bytes
// per frame beside the time to encode it.
func BenchmarkStatsJSON(b *testing.B) {
	sd, base := openServePoint(b)
	res, err := sd.Engine().ExecContext(context.Background(), base+" WHERE X.i = 7")
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

// BenchmarkServePoint is serve_point's prepared request class in
// process: two closed-loop clients of one pool send the point scoring
// SELECT with its id as a `?` argument to a server on loopback. ns/op
// is wall time over requests, both clients together; the allocations
// are the client's and the server's.
func BenchmarkServePoint(b *testing.B) {
	sd, base := openServePoint(b)
	srv := New(sd.Engine(), Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const clients = 2
	pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "bench", PoolSize: clients})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	stmt := pool.Prepare(base + " WHERE X.i = ?")
	ctx := context.Background()
	query := func(i int64) error {
		rows, err := stmt.Query(ctx, sqltypes.NewBigInt(i%servePointRows))
		if err == nil && len(rows.Rows) != 1 {
			b.Errorf("point request %d returned %d rows", i, len(rows.Rows))
		}
		return err
	}
	for i := int64(0); i < clients; i++ { // plan the text, open both connections
		if err := query(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if err := query(i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
