package exec

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
)

// PrepareTableNLQ plans the summary scan of t's columns cols: the
// aggregate SELECT nlq(cols...) FROM t, planned and scanned like every
// statement, stopped before merge. A run returns the n/L/Q partial of
// each partition holding rows, in partition order, and the rows scanned.
// It is not a query (no sys.queries row, no query histograms), but its
// folded rows count in engine_udf_calls_total like any aggregate's.
func PrepareTableNLQ(t *storage.Table, cols []int, mt core.MatrixType, workers int, columnar bool) (func(context.Context) (partials []*core.NLQ, seen int64, err error), error) {
	schema := t.Schema()
	args := make([]sqlparser.Expr, len(cols))
	for i, c := range cols {
		if c < 0 || c >= schema.Len() {
			return nil, fmt.Errorf("exec: column ordinal %d out of range 0..%d", c, schema.Len()-1)
		}
		args[i] = &sqlparser.ColumnRef{Name: schema.Columns[c].Name}
	}
	b := &binding{}
	if err := b.add(t.Name(), t); err != nil {
		return nil, err
	}
	p := &PreparedSelect{
		env:  &Env{Workers: workers, Columnar: columnar},
		b:    b,
		tail: planTail(b, nil),
		agg:  &aggPlan{specs: []aggSpec{{agg: nlqFold{len(cols), mt}, args: args}}},
	}
	p.planSources()
	return func(ctx context.Context) ([]*core.NLQ, int64, error) {
		var st Stats
		groups, err := p.scan(ctx, nil, nil, &st, nil, nil)
		if err != nil {
			return nil, 0, err
		}
		var partials []*core.NLQ
		for _, g := range groups {
			if gs := g[""]; gs != nil {
				partials = append(partials, gs.states[0].(*core.NLQ))
			}
		}
		return partials, st.RowsScanned, nil
	}, nil
}

// nlqFold is core.NLQ behind udf.FloatAggregate, the summary scan's
// one spec over the summarized columns. Unlike nlq_list it has no (d,
// mtype) header, no d ≤ MaxD limit, and skips a point with a non-number.
type nlqFold struct {
	d  int
	mt core.MatrixType
}

func (nlqFold) Name() string        { return "$nlq" }
func (nlqFold) CheckArgs(int) error { return nil }
func (nlqFold) LeadArgs() int       { return 0 }

//statlint:ignore udfcontract a summary is not a UDF call: d has no MaxD bound, so its state cannot fit the 64 KB segment
func (f nlqFold) Init(*udf.Heap) (udf.State, error) { return core.NewNLQ(f.d, f.mt) }

// Accumulate sees the rows the float decode declines: in a summary scan
// every one has a NULL, so it returns before it allocates.
func (nlqFold) Accumulate(s udf.State, args []sqltypes.Value) error {
	for _, v := range args {
		if _, ok := v.Float(); !ok {
			return nil
		}
	}
	x := make([]float64, len(args))
	for i, v := range args {
		x[i], _ = v.Float()
	}
	return s.(*core.NLQ).Update(x)
}

func (nlqFold) AccumulateFloats(s udf.State, _ []sqltypes.Value, x []float64) error {
	return s.(*core.NLQ).Update(x)
}

func (nlqFold) AccumulateBlock(s udf.State, _ []sqltypes.Value, cols [][]float64, valid []bool) error {
	return s.(*core.NLQ).UpdateBlock(cols, valid)
}

func (nlqFold) Merge(dst, src udf.State) error { return dst.(*core.NLQ).Merge(src.(*core.NLQ)) }

func (nlqFold) Finalize(s udf.State) (sqltypes.Value, error) {
	return sqltypes.NewVarChar(s.(*core.NLQ).Pack()), nil
}
