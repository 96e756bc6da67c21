// Package score implements model application ("scoring", §3.5): the
// scalar UDFs that evaluate a model per row in a single table scan,
// and the relational model-table layouts the paper stores models in
// (BETA, MU/LAMBDA, C/R/W).
package score

import (
	"fmt"
	"math"

	"repro/internal/engine/db"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
)

// Register installs the scoring scalar UDFs:
//
//	linearregscore(X1..Xd, b0, b1..bd)        → ŷ = β₀ + βᵀx
//	fascore(X1..Xd, µ1..µd, Λ1j..Λdj)         → j-th reduced coordinate
//	kdistance(X1..Xd, C1j..Cdj)               → (x−Cj)ᵀ(x−Cj)
//	clusterscore(d1..dk)                      → argmin j (1-based)
//
// Each is called once (fascore/kdistance k times) in a SELECT that
// cross-joins X with the small model tables, so scoring is one scan.
// Each is one float body: the engine unboxes the arguments (a NULL
// makes the row's result NULL, a value that is not a number fails the
// statement) and boxes the result as Ret.
func Register(d *db.DB) error {
	numeric := []sqltypes.Type{sqltypes.TypeDouble}
	defs := []expr.FuncDef{
		{Name: "linearregscore", MinArgs: 3, MaxArgs: -1, Float: linearRegScore,
			Params: numeric, Ret: sqltypes.TypeDouble, UDF: true},
		{Name: "fascore", MinArgs: 3, MaxArgs: -1, Float: faScore,
			Params: numeric, Ret: sqltypes.TypeDouble, UDF: true},
		{Name: "kdistance", MinArgs: 2, MaxArgs: -1, Float: kDistance,
			Params: numeric, Ret: sqltypes.TypeDouble, UDF: true},
		{Name: "clusterscore", MinArgs: 1, MaxArgs: -1, Float: clusterScore,
			Params: numeric, Ret: sqltypes.TypeBigInt, UDF: true},
	}
	for _, def := range defs {
		if err := d.Scalars().Register(def); err != nil {
			return err
		}
	}
	return nil
}

// linearRegScore computes the dot product ŷ = b0 + Σ ba·xa. The call
// site passes 2d+1 arguments: d point values then d+1 coefficients.
func linearRegScore(args []float64) (float64, error) {
	if len(args)%2 != 1 {
		return 0, fmt.Errorf("score: linearregscore expects 2d+1 arguments (x..., b0, b...), got %d", len(args))
	}
	d := (len(args) - 1) / 2
	x, beta := args[:d], args[d:]
	y := beta[0]
	for a := 0; a < d; a++ {
		y += beta[a+1] * x[a]
	}
	return y, nil
}

// faScore computes the j-th coordinate of x′ = Λᵀ(x−µ): the call site
// passes 3d arguments — the point, the mean, and the j-th component.
func faScore(args []float64) (float64, error) {
	if len(args)%3 != 0 {
		return 0, fmt.Errorf("score: fascore expects 3d arguments (x..., mu..., lambda_j...), got %d", len(args))
	}
	d := len(args) / 3
	x, mu, lam := args[:d], args[d:2*d], args[2*d:]
	var s float64
	for a := 0; a < d; a++ {
		s += (x[a] - mu[a]) * lam[a]
	}
	return s, nil
}

// kDistance computes the squared Euclidean distance between the point
// and one centroid: 2d arguments.
func kDistance(args []float64) (float64, error) {
	if len(args)%2 != 0 {
		return 0, fmt.Errorf("score: kdistance expects 2d arguments (x..., c_j...), got %d", len(args))
	}
	d := len(args) / 2
	x, c := args[:d], args[d:]
	var s float64
	for a := 0; a < d; a++ {
		diff := x[a] - c[a]
		s += diff * diff
	}
	return s, nil
}

// clusterScore returns the 1-based subscript J of the minimum distance
// (J s.t. dJ ≤ dj for all j), the clustering score of §3.5.
func clusterScore(args []float64) (float64, error) {
	best, bestD := 0, math.Inf(1)
	for j, f := range args {
		if f < bestD {
			best, bestD = j+1, f
		}
	}
	return float64(best), nil
}
