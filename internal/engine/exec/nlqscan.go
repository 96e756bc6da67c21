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

// TableNLQ is the summary scan of one table's columns: the aggregate
// SELECT nlq(cols...) FROM t, planned and scanned like every statement,
// stopped before merge. It is not a query (no sys.queries row, no query
// histograms), but its folded rows count in engine_udf_calls_total like
// any aggregate's.
type TableNLQ struct{ p *PreparedSelect }

// PrepareTableNLQ plans the summary scan of t's columns cols; columnar
// offers it the block source, as Env.Columnar does a statement.
func PrepareTableNLQ(t *storage.Table, cols []int, mt core.MatrixType, workers int, columnar bool) (*TableNLQ, error) {
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
	return &TableNLQ{p}, nil
}

// Read folds each partition's rows after marks[p] into parts[p] — a new
// state where nil, left nil while no row comes — and advances marks[p]
// past them; it returns the rows read. Handed the marks and states of an
// earlier Read, it reads only the rows appended since, and because a
// partition's rows fold in the order they were appended, parts[p] is
// then, bit for bit, what one Read from the zero marks gives. marks and
// parts hold one slot per partition; on error both are part-way and the
// caller discards them.
func (s *TableNLQ) Read(ctx context.Context, marks []storage.Mark, parts []*core.NLQ) (int64, error) {
	if n := s.p.b.tables[0].Partitions(); len(parts) != n {
		return 0, fmt.Errorf("exec: %d summary states for %d partitions", len(parts), n)
	}
	groups := make([]map[string]*groupState, len(parts))
	for p, q := range parts {
		if q != nil {
			groups[p] = map[string]*groupState{"": {states: []udf.State{q}, seen: make([]map[string]sqltypes.Row, 1), tiles: make([]floatTile, 1)}}
		}
	}
	var st Stats
	if err := s.p.scan(ctx, nil, nil, &st, nil, nil, groups, marks); err != nil {
		return 0, err
	}
	for p, g := range groups {
		if gs := g[""]; gs != nil {
			parts[p] = gs.states[0].(*core.NLQ)
		}
	}
	return st.RowsScanned, nil
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

func (nlqFold) AccumulateFloats(s udf.State, _ []sqltypes.Value, tile []float64, _ int) error {
	return s.(*core.NLQ).UpdateRows(tile)
}

func (nlqFold) Merge(dst, src udf.State) error { return dst.(*core.NLQ).Merge(src.(*core.NLQ)) }

func (nlqFold) Finalize(s udf.State) (sqltypes.Value, error) {
	return sqltypes.NewVarChar(s.(*core.NLQ).Pack()), nil
}
