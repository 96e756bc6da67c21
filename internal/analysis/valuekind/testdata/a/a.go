// Fixture for the valuekind analyzer.
package a

import (
	"repro/internal/core"
	"repro/internal/engine/sqltypes"
)

var schema = sqltypes.MustSchema( // want `sqltypes.MustSchema panics on bad input and is test-only`
	sqltypes.Column{Name: "x", Type: sqltypes.TypeDouble},
)

func bad(v sqltypes.Value) float64 {
	return v.MustFloat() // want `sqltypes.MustFloat panics on bad input and is test-only`
}

func good(v sqltypes.Value) (float64, error) {
	return v.AsFloat()
}

func goodSchema() (*sqltypes.Schema, error) {
	return sqltypes.NewSchema(sqltypes.Column{Name: "x", Type: sqltypes.TypeDouble})
}

func badNLQ(d int) *core.NLQ {
	return core.MustNLQ(d, core.Diagonal) // want `core.MustNLQ panics on bad input and is test-only`
}

func goodNLQ(d int) (*core.NLQ, error) {
	return core.NewNLQ(d, core.Diagonal)
}
