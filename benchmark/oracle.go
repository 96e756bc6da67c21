package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/extern"
	"repro/internal/synth"
)

// tolerance is how far a summary or a score may sit from the oracle,
// relative to the oracle's magnitude.
const tolerance = 1e-9

// nlqOracle is the reference n, L, Q of one generated data set.
type nlqOracle struct {
	rows int
	// seq comes from the single-threaded internal/extern analyzer over
	// the CSV export of the data set.
	seq *core.NLQ
	// parts are the per-partition partials in row order: row k lands in
	// partition k mod partitions, on one node and across the cluster.
	parts []*core.NLQ
	// posX3 counts rows with X3 > 0, the rows the projection keeps.
	posX3 int64
}

func newNLQOracle(gen synth.Config) (*nlqOracle, error) {
	o := &nlqOracle{rows: gen.N}
	pr, pw := io.Pipe()
	go func() {
		_, err := synth.WriteCSV(pw, gen)
		pw.CloseWithError(err)
	}()
	var err error
	o.seq, err = extern.ComputeNLQ(pr, gen.D, extern.Options{SkipLeadingID: true, MatrixType: core.Triangular})
	pr.CloseWithError(err) // unblocks the writer when the analyzer stopped early
	if err != nil {
		return nil, err
	}
	o.parts = make([]*core.NLQ, partitions)
	for p := range o.parts {
		if o.parts[p], err = core.NewNLQ(gen.D, core.Triangular); err != nil {
			return nil, err
		}
	}
	err = synth.Stream(gen, func(i int64, x []float64) error {
		if len(x) > 2 && x[2] > 0 {
			o.posX3++
		}
		return o.parts[int(i)%partitions].Update(x)
	})
	return o, err
}

// merged folds the partials group by group, each group left to right,
// then the group sums left to right: {{0,1,2,3}} is one node's merge
// phase, {{0,1},{2,3}} two shards merged by a coordinator.
func (o *nlqOracle) merged(groups [][]int) (*core.NLQ, error) {
	var total *core.NLQ
	for _, g := range groups {
		var sum *core.NLQ
		for _, p := range g {
			if sum == nil {
				sum = o.parts[p].Clone()
				continue
			}
			if err := sum.Merge(o.parts[p]); err != nil {
				return nil, err
			}
		}
		if total == nil {
			total = sum
			continue
		}
		if err := total.Merge(sum); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// check asserts n = rows, every sum within tolerance of the extern
// oracle, and the summary bit-identical to want (the partials merged in
// the order the path under test merges them).
func (o *nlqOracle) check(got, want *core.NLQ) error {
	if got == nil {
		return fmt.Errorf("no summary returned")
	}
	if got.N != float64(o.rows) {
		return fmt.Errorf("summary n = %g, want %d rows", got.N, o.rows)
	}
	if err := nlqClose(got, o.seq, tolerance); err != nil {
		return fmt.Errorf("against the extern oracle: %w", err)
	}
	if err := nlqBitsEqual(got, want); err != nil {
		return fmt.Errorf("bit-identity: %w", err)
	}
	return nil
}

func nlqClose(a, b *core.NLQ, tol float64) error {
	if a.D != b.D || a.N != b.N {
		return fmt.Errorf("shape (d=%d n=%g) != (d=%d n=%g)", a.D, a.N, b.D, b.N)
	}
	for i := range b.L {
		if !closeTo(a.L[i], b.L[i], tol) {
			return fmt.Errorf("L[%d] = %.17g, want %.17g", i, a.L[i], b.L[i])
		}
	}
	for r := 0; r < b.D; r++ {
		for c := 0; c <= r; c++ {
			if !closeTo(a.QAt(r, c), b.QAt(r, c), tol) {
				return fmt.Errorf("Q[%d,%d] = %.17g, want %.17g", r, c, a.QAt(r, c), b.QAt(r, c))
			}
		}
	}
	return nil
}

func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

func nlqBitsEqual(a, b *core.NLQ) error {
	if a.D != b.D || a.Type != b.Type {
		return fmt.Errorf("shape (d=%d %v) != (d=%d %v)", a.D, a.Type, b.D, b.Type)
	}
	if math.Float64bits(a.N) != math.Float64bits(b.N) {
		return fmt.Errorf("n %v != %v", a.N, b.N)
	}
	for _, v := range []struct {
		name string
		a, b []float64
	}{{"L", a.L, b.L}, {"Q", a.Q, b.Q}, {"min", a.Min, b.Min}, {"max", a.Max, b.Max}} {
		for i := range v.b {
			if math.Float64bits(v.a[i]) != math.Float64bits(v.b[i]) {
				return fmt.Errorf("%s[%d] = %.17g, want %.17g", v.name, i, v.a[i], v.b[i])
			}
		}
	}
	return nil
}
