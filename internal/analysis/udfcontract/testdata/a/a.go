// Fixture for the udfcontract analyzer.
package a

import (
	"fmt"
	"os"

	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// partial implements most aggregate phases but not the full contract.
type partial struct{} // want `partial implements aggregate-UDF phases but not the full udf.Aggregate contract`

func (partial) Name() string                                     { return "partial" }
func (partial) CheckArgs(n int) error                            { return nil }
func (partial) Init(h *udf.Heap) (udf.State, error)              { return nil, h.Alloc(8) }
func (partial) Accumulate(s udf.State, a []sqltypes.Value) error { return nil }

// noheap is a complete aggregate whose Init bypasses heap accounting.
type noheap struct{}

func (noheap) Name() string          { return "noheap" }
func (noheap) CheckArgs(n int) error { return nil }

func (noheap) Init(_ *udf.Heap) (udf.State, error) { // want `noheap.Init discards its \*udf.Heap`
	return new([4096]float64), nil
}

func (noheap) Accumulate(s udf.State, a []sqltypes.Value) error { return nil }
func (noheap) Merge(dst, src udf.State) error                   { return nil }
func (noheap) Finalize(s udf.State) (sqltypes.Value, error)     { return sqltypes.Null, nil }

var _ udf.Aggregate = noheap{} // blank identity assertion: allowed

// seen is package-level mutable state in an aggregate-defining
// package: one Aggregate value serves all queries concurrently.
var seen map[string]int // want `package-level var seen in an aggregate-UDF package`

// shout is a scalar UDF that performs I/O.
func shout(args []sqltypes.Value) (sqltypes.Value, error) {
	fmt.Println("scoring row", args) // want `scalar UDF shout performs I/O \(fmt.Println\)`
	f, err := os.Open("model.txt")   // want `scalar UDF shout performs I/O \(os.Open\)`
	if err != nil {
		return sqltypes.Null, err
	}
	defer f.Close() // want `scalar UDF shout performs I/O \(os.Close\)`
	return sqltypes.Null, nil
}

// pure is a scalar UDF with no I/O: allowed (fmt.Errorf is not I/O).
func pure(args []sqltypes.Value) (sqltypes.Value, error) {
	if len(args) == 0 {
		return sqltypes.Null, fmt.Errorf("a: pure expects arguments")
	}
	return args[0], nil
}

// logged is a float-body scalar UDF that performs I/O.
func logged(args []float64) (float64, error) {
	fmt.Fprintln(os.Stderr, "scoring", args) // want `scalar UDF logged performs I/O \(fmt.Fprintln\)`
	return args[0], nil
}

// dot is a float body with no I/O: allowed.
func dot(args []float64) (float64, error) {
	if len(args)%2 != 0 {
		return 0, fmt.Errorf("a: dot expects 2d arguments, got %d", len(args))
	}
	var s float64
	for i := 0; i < len(args)/2; i++ {
		s += args[i] * args[len(args)/2+i]
	}
	return s, nil
}

// adapters hands out float bodies as function literals.
func adapters() []func([]float64) (float64, error) {
	return []func([]float64) (float64, error){
		func(x []float64) (float64, error) {
			os.Getenv("MODEL") // want `scalar UDF scalar UDF literal performs I/O \(os.Getenv\)`
			return x[0], nil
		},
		dot, logged,
	}
}
