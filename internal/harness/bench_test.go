package harness

import (
	"io"
	"testing"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/sqlgen"
)

// BenchmarkPaper runs the arms the experiments time — the same values,
// not a copy — under `go test -bench`, one sub-benchmark per arm over a
// dataset loaded once: Paper/<dataset>/<arm>. The full sweeps with the
// paper's grids are cmd/bench.
//
//	go test -run '^$' -bench Paper -benchmem ./internal/harness
func BenchmarkPaper(b *testing.B) {
	const n, dims, k = 20000, 32, 16
	cfg := Config{Partitions: 8, Out: io.Discard}.withDefaults()
	over := func(name string, ds dataset, prepare func(e *env) error, arms ...arm) {
		err := withDataset(cfg, ds, func(e *env) error {
			if prepare != nil {
				if err := prepare(e); err != nil {
					return err
				}
			}
			for _, a := range arms {
				b.Run(name+"/"+a.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := a.run(e); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}

	tri := core.Triangular
	export := func(e *env) error { _, err := e.exportX(cfg.ODBC); return err }
	perCell, _ := perCellArm(8)
	blocked, _, err := blockedArm(128)
	if err != nil {
		b.Fatal(err)
	}
	over("d=32", dataset{n: n, dims: dims}, export,
		external.arm(nil), sqlArm(tri), udfArm(tri), stringArm(tri), udfArm(core.Diagonal), udfArm(core.Full),
		arm{"Table 1 C++ + model math", external.arm(buildAllModels).run},
		arm{"Table 1 UDF + model math", viaFacade(statsudf.ViaUDF, tri).arm(buildAllModels).run},
		groupByArm(dims, 8, sqlgen.StringStyle), groupByArm(dims, 8, sqlgen.ListStyle))
	over("d=8", dataset{n: n, dims: 8}, nil, sqlArm(tri), udfArm(tri), perCell)
	over("d=128", dataset{n: n / 4, dims: 128}, nil, blocked)
	var scoring []arm
	for _, tech := range techniques {
		scoring = append(scoring, tech.sql, tech.udf)
	}
	over("scoring", dataset{n: n, dims: dims, models: k}, nil, scoring...)
}
