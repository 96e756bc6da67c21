package exec_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/engine/udf"
	"repro/internal/nlqudf"
)

// recAgg is rec(tag, x1, ..., xn), a float-bodied aggregate that records
// the rows it folds, in order: the state is the list of rows, Merge
// appends src's list to dst's and Finalize prints it. Its boxed rule is
// nlq_list's for NULL (the row is skipped) and numbers, but a value that
// is not a number folds as NaN instead of failing, so the rows only
// Accumulate sees show in the record too.
type recAgg struct{}

type recState struct {
	tag  string
	rows [][]float64
}

func (recAgg) Name() string { return "rec" }
func (recAgg) CheckArgs(n int) error {
	if n < 2 {
		return fmt.Errorf("rec takes a tag and at least one value")
	}
	return nil
}
func (recAgg) Init(*udf.Heap) (udf.State, error) { return &recState{}, nil }
func (recAgg) LeadArgs() int                     { return 1 }

// begin checks the call's tag, the lead argument, against the state's.
func (st *recState) begin(lead []sqltypes.Value) error {
	tag := lead[0].Str()
	if st.tag == "" {
		st.tag = tag
	} else if tag != st.tag {
		return fmt.Errorf("rec: tag %q in a state of %q", tag, st.tag)
	}
	return nil
}

func (recAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*recState)
	if err := st.begin(args); err != nil {
		return err
	}
	x := make([]float64, len(args)-1)
	for j, v := range args[1:] {
		if v.IsNull() {
			return nil
		}
		var ok bool
		if x[j], ok = v.Float(); !ok {
			x[j] = math.NaN()
		}
	}
	st.rows = append(st.rows, x)
	return nil
}

func (recAgg) AccumulateFloats(s udf.State, lead []sqltypes.Value, tile []float64, k int) error {
	st := s.(*recState)
	if err := st.begin(lead); err != nil {
		return err
	}
	for w := len(tile) / k; len(tile) > 0; tile = tile[w:] {
		st.rows = append(st.rows, slices.Clone(tile[:w]))
	}
	return nil
}

func (recAgg) Merge(dst, src udf.State) error {
	ds, ss := dst.(*recState), src.(*recState)
	if ds.tag == "" {
		ds.tag = ss.tag
	}
	ds.rows = append(ds.rows, ss.rows...)
	return nil
}

func (recAgg) Finalize(s udf.State) (sqltypes.Value, error) {
	st := s.(*recState)
	if st.tag == "" {
		return sqltypes.Null, nil
	}
	return sqltypes.NewVarChar(printRows(st.tag, st.rows)), nil
}

func printRows(tag string, rows [][]float64) string {
	var b strings.Builder
	b.WriteString(tag)
	for _, x := range rows {
		b.WriteByte(';')
		for j, f := range x {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	return b.String()
}

// foldRef is the reference one spec's state is checked against: add
// folds one row of numbers (NaN where rec folds a non-number), merge
// another partition's reference after this one.
type foldRef interface {
	add(x []float64)
	merge(src foldRef)
	value() sqltypes.Value
}

type recRef struct {
	tag  string
	rows [][]float64
}

func (r *recRef) add(x []float64)       { r.rows = append(r.rows, x) }
func (r *recRef) merge(src foldRef)     { r.rows = append(r.rows, src.(*recRef).rows...) }
func (r *recRef) value() sqltypes.Value { return sqltypes.NewVarChar(printRows(r.tag, r.rows)) }

// nlqRef is one core.NLQ.Update per row and core.NLQ.Merge per partition.
type nlqRef struct{ q *core.NLQ }

func (r *nlqRef) add(x []float64)       { r.q.Update(x) }
func (r *nlqRef) merge(src foldRef)     { _ = r.q.Merge(src.(*nlqRef).q) }
func (r *nlqRef) value() sqltypes.Value { return sqltypes.NewVarChar(r.q.Pack()) }

// blockRef is one core.BlockResult.Update per row; merge adds as
// nlq_block's Merge does.
type blockRef struct {
	blk core.Block
	res *core.BlockResult
}

func newBlockRef(blk core.Block) *blockRef {
	return &blockRef{blk, core.NewBlockResult(blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo)}
}

func (r *blockRef) add(x []float64) {
	r.res.Update(x, 1)
}

func (r *blockRef) merge(src foldRef) {
	d, s := r.res, src.(*blockRef).res
	d.N += s.N
	for i := range d.Q {
		d.Q[i] += s.Q[i]
	}
	for i := range d.L {
		d.L[i] += s.L[i]
		if s.Min[i] < d.Min[i] {
			d.Min[i] = s.Min[i]
		}
		if s.Max[i] > d.Max[i] {
			d.Max[i] = s.Max[i]
		}
	}
}

func (r *blockRef) value() sqltypes.Value { return sqltypes.NewVarChar(nlqudf.PackBlock(r.blk, r.res)) }

// foldSpec is one aggregate call of a staging case: the call up to its
// value arguments, those arguments (columns of t or numeric literals)
// and a fresh reference.
type foldSpec struct {
	call string
	args []string
	ref  func() foldRef
}

func recSpec(tag string, args ...string) foldSpec {
	return foldSpec{"rec('" + tag + "'", args, func() foldRef { return &recRef{tag: tag} }}
}

func nlqSpec(mt core.MatrixType, args ...string) foldSpec {
	return foldSpec{fmt.Sprintf("nlq_list(%d, '%s'", len(args), mt), args,
		func() foldRef { return &nlqRef{core.MustNLQ(len(args), mt)} }}
}

func blockSpec(blk core.Block, args ...string) foldSpec {
	return foldSpec{fmt.Sprintf("nlq_block(%d, %d, %d, %d", blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi), args,
		func() foldRef { return newBlockRef(blk) }}
}

// stagingCases are the statements the pin runs: float rows with one
// spec and with several (a literal among the arguments, a column twice),
// boxed rows through a VARCHAR column, a WHERE, a GROUP BY, nlq_block.
var stagingCases = []struct {
	name  string
	where string // a conjunct over i % 3, or ""
	group bool   // GROUP BY i % 5
	specs []foldSpec
}{
	{"plain list", "", false, []foldSpec{nlqSpec(core.Triangular, "a", "b", "n")}},
	{"plain rec", "", false, []foldSpec{recSpec("p", "a", "b", "n")}},
	{"two specs", "", false, []foldSpec{recSpec("l", "a", "2.5", "b"), recSpec("r", "a", "b", "a"), nlqSpec(core.Full, "a", "1.5", "b")}},
	{"varchar", "", false, []foldSpec{recSpec("v", "a", "w"), nlqSpec(core.Full, "b", "s")}},
	{"where", "i % 3 <> 0", false, []foldSpec{recSpec("w", "a", "b", "w"), nlqSpec(core.Diagonal, "a", "b", "n", "s")}},
	{"group by", "", true, []foldSpec{recSpec("g", "a", "n", "w"), nlqSpec(core.Triangular, "a", "b", "n")}},
	{"group by where", "i % 3 <> 0", true, []foldSpec{recSpec("h", "n", "b"), nlqSpec(core.Triangular, "b", "a")}},
	{"nlq_block", "", false, []foldSpec{blockSpec(core.Block{RowLo: 0, RowHi: 2, ColLo: 0, ColHi: 2}, "a", "b"),
		blockSpec(core.Block{RowLo: 0, RowHi: 1, ColLo: 1, ColHi: 3}, "a", "b", "n")}},
	{"nlq_block group by", "", true, []foldSpec{blockSpec(core.Block{RowLo: 0, RowHi: 1, ColLo: 1, ColHi: 3}, "a", "s", "n")}},
}

// stagingRows makes n rows of t(i, a, b, n, s, w) from i0 on: a and b
// DOUBLE, n BIGINT, s a numeric VARCHAR and w a VARCHAR that is numeric,
// or now and then not; every value but i is NULL now and then.
func stagingRows(rng *rand.Rand, i0, n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for k := range rows {
		r := sqltypes.Row{
			sqltypes.NewBigInt(int64(i0 + k)),
			sqltypes.NewDouble(rng.NormFloat64()),
			sqltypes.NewDouble(rng.NormFloat64() * 100),
			sqltypes.NewBigInt(int64(rng.Intn(2001) - 1000)),
			sqltypes.NewVarChar(strconv.FormatFloat(rng.Float64()*8-4, 'g', -1, 64)),
			sqltypes.NewVarChar(strconv.FormatFloat(rng.ExpFloat64(), 'g', 6, 64)),
		}
		if rng.Float64() < 0.06 {
			r[5] = sqltypes.NewVarChar("n/a")
		}
		for c := 1; c < len(r); c++ {
			if rng.Float64() < 0.04 {
				r[c] = sqltypes.Null
			}
		}
		rows[k] = r
	}
	return rows
}

// argValues is a spec's value arguments for the table row r.
func argValues(schema *sqltypes.Schema, args []string, r sqltypes.Row) []sqltypes.Value {
	out := make([]sqltypes.Value, len(args))
	for j, a := range args {
		if c := schema.Index(a); c >= 0 {
			out[j] = r[c]
		} else {
			f, _ := strconv.ParseFloat(a, 64)
			out[j] = sqltypes.NewDouble(f)
		}
	}
	return out
}

// expected is what a staging case must return, group key → one value
// per spec: each partition's qualifying rows of the group folded into a
// fresh reference in the partition's scan order — a state is made by a
// group's first row, NULL-skipped or not — and the partitions' references
// merged in partition order.
func expected(t *testing.T, tab *storage.Table, where, group bool, specs []foldSpec) map[int64][]sqltypes.Value {
	t.Helper()
	schema := tab.Schema()
	merged := map[int64][]foldRef{}
	for p := 0; p < tab.Partitions(); p++ {
		part := map[int64][]foldRef{}
		var keys []int64
		err := tab.ScanPartition(context.Background(), p, func(r sqltypes.Row) error {
			i := r[0].Int()
			if where && i%3 == 0 {
				return nil
			}
			var key int64
			if group {
				key = i % 5
			}
			refs, ok := part[key]
			if !ok {
				refs = make([]foldRef, len(specs))
				for s, sp := range specs {
					refs[s] = sp.ref()
				}
				part[key] = refs
				keys = append(keys, key)
			}
		spec:
			for s, sp := range specs {
				vals := argValues(schema, sp.args, r)
				x := make([]float64, len(vals))
				for j, v := range vals {
					if v.IsNull() {
						continue spec
					}
					var ok bool
					if x[j], ok = v.Float(); !ok {
						x[j] = math.NaN()
					}
				}
				refs[s].add(x)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if dst, ok := merged[key]; ok {
				for s := range dst {
					dst[s].merge(part[key][s])
				}
			} else {
				merged[key] = part[key]
			}
		}
	}
	out := make(map[int64][]sqltypes.Value, len(merged))
	for key, refs := range merged {
		for _, r := range refs {
			out[key] = append(out[key], r.value())
		}
	}
	return out
}

// stagingDB opens an on-disk database with rec registered and t loaded.
func stagingDB(t *testing.T, rng *rand.Rand) (*statsudf.DB, *storage.Table) {
	t.Helper()
	d, err := statsudf.Open(statsudf.Options{Dir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Engine().Aggregates().Register(recAgg{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE TABLE t (i BIGINT, a DOUBLE, b DOUBLE, n BIGINT, s VARCHAR, w VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	tab, err := d.Engine().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(stagingRows(rng, 0, 203)...); err != nil {
		t.Fatal(err)
	}
	return d, tab
}

// TestAggregateStatesFoldEveryRowInOrder pins what a float-bodied
// aggregate's states see, whatever the executor stages on the way: over
// a table with NULL, BIGINT and VARCHAR values at random positions, on
// the row log's float and boxed paths (the block source declined) and
// on column blocks (the statement as the engine plans it), every
// group's state receives exactly its qualifying rows, in its
// partitions' scan order, merged in partition order (rec's record);
// nlq_list and nlq_block give the bits of one Update per row
// (references merged the same way); the summary scan (TableNLQ.Read)
// gives each partition the bits of one Update per row, fresh and
// resumed after an append; and engine_udf_calls_total advances by
// rows × specs.
func TestAggregateStatesFoldEveryRowInOrder(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d, tab := stagingDB(t, rng)
			run := d.Exec
			if !columnar {
				eng := d.Engine()
				env := &exec.Env{Catalog: eng, Funcs: eng.Scalars(), Aggs: eng.Aggregates()}
				run = func(sql string) (*exec.Result, error) {
					stmt, err := sqlparser.Parse(sql)
					if err != nil {
						return nil, err
					}
					return exec.Select(context.Background(), stmt.(*sqlparser.Select), env)
				}
			}
			for _, c := range stagingCases {
				calls := make([]string, len(c.specs))
				for s, sp := range c.specs {
					calls[s] = sp.call + ", " + strings.Join(sp.args, ", ") + ")"
				}
				sql := "SELECT " + strings.Join(calls, ", ") + " FROM t"
				if c.group {
					sql = "SELECT i % 5, " + strings.Join(calls, ", ") + " FROM t"
				}
				qualifying := tab.NumRows()
				if c.where != "" {
					sql += " WHERE " + c.where
					qualifying -= (tab.NumRows() + 2) / 3 // i = 0, 3, 6, ... fail i % 3 <> 0
				}
				if c.group {
					sql += " GROUP BY i % 5"
				}
				before := obs.UDFCalls.Value()
				res, err := run(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", c.name, sql, err)
				}
				if got, want := obs.UDFCalls.Value()-before, qualifying*int64(len(c.specs)); got != want {
					t.Errorf("%s: engine_udf_calls_total advanced by %d, want rows × specs = %d", c.name, got, want)
				}
				want := expected(t, tab, c.where != "", c.group, c.specs)
				if len(res.Rows) != len(want) {
					t.Fatalf("%s: %d groups, want %d", c.name, len(res.Rows), len(want))
				}
				for _, row := range res.Rows {
					var key int64
					if c.group {
						key, row = row[0].Int(), row[1:]
					}
					for s, v := range row {
						if w := want[key][s]; v != w {
							t.Errorf("%s: group %d spec %s gave\n%v\nwant\n%v", c.name, key, calls[s], v, w)
						}
					}
				}
			}

			// The summary scan, fresh and then resumed over an append.
			schema := tab.Schema()
			cols := []int{schema.Index("a"), schema.Index("b"), schema.Index("n")}
			scan, err := exec.PrepareTableNLQ(tab, cols, core.Triangular, 0, columnar)
			if err != nil {
				t.Fatal(err)
			}
			marks := make([]storage.Mark, tab.Partitions())
			parts := make([]*core.NLQ, tab.Partitions())
			for round := 0; round < 2; round++ {
				if round == 1 {
					if err := tab.Insert(stagingRows(rng, int(tab.NumRows()), 37)...); err != nil {
						t.Fatal(err)
					}
				}
				before := obs.UDFCalls.Value()
				n, err := scan.Read(context.Background(), marks, parts)
				if err != nil {
					t.Fatal(err)
				}
				if got := obs.UDFCalls.Value() - before; got != n {
					t.Errorf("summary read %d: engine_udf_calls_total advanced by %d over %d rows", round, got, n)
				}
				for p, q := range parts {
					want := sqltypes.Null
					ref := nlqSpec(core.Triangular, "a", "b", "n").ref().(*nlqRef)
					rows := 0
					err := tab.ScanPartition(context.Background(), p, func(r sqltypes.Row) error {
						rows++
						x := make([]float64, len(cols))
						for j, c := range cols {
							f, ok := r[c].Float()
							if !ok {
								return nil
							}
							x[j] = f
						}
						ref.add(x)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if rows > 0 {
						want = ref.value()
					}
					got := sqltypes.Null
					if q != nil {
						got = sqltypes.NewVarChar(q.Pack())
					}
					if got != want {
						t.Errorf("summary read %d, partition %d gave\n%v\nwant\n%v", round, p, got, want)
					}
				}
			}
		})
	}
}
