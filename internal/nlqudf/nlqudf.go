// Package nlqudf registers the paper's aggregate UDF: one-scan
// computation of the summary matrices n, L, Q inside the engine.
//
// Two variants implement the two parameter-passing styles of §3.4:
//
//	nlq_list(d, mtype, X1, ..., Xd)  — one SQL argument per dimension
//	nlq_str(d, mtype, packed)        — the vector packed into a string,
//	                                   parsed per row (slower; Figure 3)
//
// plus the blocked variant for d > MAX_d (Table 6):
//
//	nlq_block(rowlo, rowhi, collo, colhi, X1, ..., Xd)
//
// All return the summaries packed into a single string (UDFs cannot
// return arrays), decoded with core.Unpack / core.UnpackBlock.
package nlqudf

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// Register installs the three aggregate UDFs into a database, the
// engine-level equivalent of Teradata's CREATE FUNCTION. nlq_list and
// nlq_block also have float bodies (udf.FloatAggregate): the executor
// hands them tiles of numbers unboxed, whether it read float rows or
// column blocks, and their boxed Accumulate sees only the rows with a
// NULL or a value that is not a number.
func Register(d *db.DB) error {
	for _, a := range []udf.Aggregate{
		nlqAgg{},
		strAgg{},
		&blockAgg{},
		histAgg{},
	} {
		if err := d.Aggregates().Register(a); err != nil {
			return err
		}
	}
	return nil
}

// nlqState is the UDF's heap-allocated working storage — the C struct
// of §3.4 ("udf_nLQ_storage"). The heap budget is charged for the
// static MAX_d-sized struct at Init, before the first row is read,
// exactly as the paper describes ("storage gets allocated in the heap
// before the first row is read", wasting some space at low d).
type nlqState struct {
	nlq *core.NLQ // created lazily on the first row, d ≤ MaxD
	buf []float64 // scratch for unpacking a row vector
	// hdr is the (d, mtype) argument pair nlq was built from. The pair
	// is a constant of the call, so a row whose header arguments
	// compare equal (==: same type, same payload) to these skips
	// re-parsing them; anything else goes through header() as before.
	hdr [2]sqltypes.Value
}

// nlqAgg is nlq_list, the list style: its float body is the paper's
// compiled accumulation over a row of d numbers.
type nlqAgg struct{}

func (nlqAgg) Name() string { return "nlq_list" }

func (nlqAgg) CheckArgs(n int) error {
	if n < 3 {
		return fmt.Errorf("nlqudf: nlq_list expects at least 3 arguments")
	}
	if n-2 > core.MaxD {
		return fmt.Errorf("nlqudf: nlq_list supports at most d=%d dimensions per call; use nlq_block for more", core.MaxD)
	}
	return nil
}

// stateBytes is the heap charge of an nlq_list state of d dimensions:
// the NLQ itself (Q, L, min, max, n and the header) and the scratch row.
func stateBytes(d int) int {
	return 8 * (d*d + 3*d + 2 + d)
}

func (nlqAgg) Init(h *udf.Heap) (udf.State, error) {
	// Static allocation for the maximum dimensionality.
	if err := h.Alloc(stateBytes(core.MaxD)); err != nil {
		return nil, err
	}
	return &nlqState{buf: make([]float64, core.MaxD)}, nil
}

// header parses the (d, mtype) leading arguments shared by both styles.
func header(args []sqltypes.Value) (int, core.MatrixType, error) {
	if args[0].IsNull() || args[1].IsNull() {
		return 0, 0, fmt.Errorf("nlqudf: d and mtype must not be NULL")
	}
	d := int(args[0].Int())
	if d < 1 || d > core.MaxD {
		return 0, 0, fmt.Errorf("nlqudf: d=%d out of range 1..%d", d, core.MaxD)
	}
	mt, err := core.ParseMatrixType(strings.ToLower(args[1].Str()))
	if err != nil {
		return 0, 0, err
	}
	return d, mt, nil
}

// begin checks one row's (d, mtype) pair — the leading two arguments —
// against the summary st builds, creating the summary on the first row.
func (st *nlqState) begin(args []sqltypes.Value) error {
	if st.nlq != nil && args[0] == st.hdr[0] && args[1] == st.hdr[1] {
		return nil
	}
	d, mt, err := header(args)
	if err != nil {
		return err
	}
	if st.nlq == nil {
		st.nlq, err = core.NewNLQ(d, mt)
		if err != nil {
			return err
		}
		st.hdr = [2]sqltypes.Value{args[0], args[1]}
	} else if st.nlq.D != d || st.nlq.Type != mt {
		return fmt.Errorf("nlqudf: inconsistent (d, mtype) across rows: (%d,%v) vs (%d,%v)",
			d, mt, st.nlq.D, st.nlq.Type)
	}
	return nil
}

// beginDims is begin for a row of n dimension values, checked against d.
func (st *nlqState) beginDims(args []sqltypes.Value, n int) error {
	if err := st.begin(args); err != nil {
		return err
	}
	if n != st.nlq.D {
		return fmt.Errorf("nlqudf: got %d vector arguments, want d=%d", n, st.nlq.D)
	}
	return nil
}

func (nlqAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*nlqState)
	if err := st.beginDims(args, len(args)-2); err != nil {
		return err
	}
	x := st.buf[:st.nlq.D]
	if skip, err := unboxDims(x, args[2:]); skip || err != nil {
		return err
	}
	return st.nlq.Update(x)
}

func (nlqAgg) LeadArgs() int { return 2 }

func (nlqAgg) AccumulateFloats(s udf.State, lead []sqltypes.Value, tile []float64, k int) error {
	st := s.(*nlqState)
	if err := st.beginDims(lead, len(tile)/k); err != nil {
		return err
	}
	return st.nlq.UpdateRows(tile)
}

// unboxDims is the boxed rule for dimension values, copying vs into x
// (of the same length) left to right: a NULL skips the row like SQL
// aggregates do, a BIGINT widens, a numeric VARCHAR parses, anything
// else is an error. A row of numbers only takes the float body instead.
func unboxDims(x []float64, vs []sqltypes.Value) (skip bool, err error) {
	for i, v := range vs {
		if v.IsNull() {
			return true, nil
		}
		f, ok := v.Float()
		if !ok {
			return false, fmt.Errorf("nlqudf: non-numeric dimension value %v", v)
		}
		x[i] = f
	}
	return false, nil
}

func (nlqAgg) Merge(dst, src udf.State) error {
	ds, ss := dst.(*nlqState), src.(*nlqState)
	if ss.nlq == nil {
		return nil // empty partition
	}
	if ds.nlq == nil {
		ds.nlq = ss.nlq
		return nil
	}
	return ds.nlq.Merge(ss.nlq)
}

func (nlqAgg) Finalize(s udf.State) (sqltypes.Value, error) {
	st := s.(*nlqState)
	if st.nlq == nil {
		return sqltypes.Null, nil // no qualifying rows
	}
	return sqltypes.NewVarChar(st.nlq.Pack()), nil
}

// strAgg is nlq_str, the string style: the vector arrives packed in one
// VARCHAR, so there is no float body. It shares nlq_list's state and
// phases 1, 3 and 4.
type strAgg struct{ list nlqAgg }

func (strAgg) Name() string { return "nlq_str" }

func (strAgg) CheckArgs(n int) error {
	if n != 3 {
		return fmt.Errorf("nlqudf: nlq_str expects (d, mtype, packed_vector)")
	}
	return nil
}

func (a strAgg) Init(h *udf.Heap) (udf.State, error) { return a.list.Init(h) }

func (strAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*nlqState)
	if err := st.begin(args); err != nil {
		return err
	}
	// Parse the packed vector: the per-row O(d) number-formatting
	// overhead the paper measures.
	if args[2].IsNull() {
		return nil // NULL vector: skip the row, like SQL aggregates
	}
	x, err := udf.UnpackFloats(args[2].Str())
	if err != nil {
		return fmt.Errorf("nlqudf: row vector: %w", err)
	}
	if len(x) != st.nlq.D {
		return fmt.Errorf("nlqudf: packed vector has %d dims, want %d", len(x), st.nlq.D)
	}
	return st.nlq.Update(x)
}

func (a strAgg) Merge(dst, src udf.State) error { return a.list.Merge(dst, src) }

func (a strAgg) Finalize(s udf.State) (sqltypes.Value, error) { return a.list.Finalize(s) }

// blockAgg computes one Q block for the high-dimensional blocked
// strategy. Its state holds only the block slab, so many block calls
// fit the scan (each call owns an independent 64 KB segment, as on the
// real system).
type blockAgg struct{}

type blockState struct {
	blk core.Block
	res *core.BlockResult
	buf []float64
}

func (b *blockAgg) Name() string { return "nlq_block" }

func (b *blockAgg) CheckArgs(n int) error {
	if n < 5 {
		return fmt.Errorf("nlqudf: nlq_block expects (rowlo, rowhi, collo, colhi, X1, ..., Xd)")
	}
	return nil
}

// blockStateBytes is the heap charge of an nlq_block state of rw row and
// cw column dimensions off the diagonal: the result (Q, L, min, max and
// n), the four block bounds and the scratch row of rw+cw values.
func blockStateBytes(rw, cw int) int {
	return 8 * (rw*cw + 3*rw + 1 + 4 + rw + cw)
}

func (b *blockAgg) Init(h *udf.Heap) (udf.State, error) {
	if err := h.Alloc(blockStateBytes(core.MaxD, core.MaxD)); err != nil {
		return nil, err
	}
	return &blockState{}, nil
}

// begin checks one row's block header — the four leading arguments —
// and its count n of dimension values, creating the block on the first
// row. The call site passes only the block's own dimension values (the
// paper's calls each receive their subscript ranges): for a diagonal
// block (row range == col range) the rw row values; otherwise the rw row
// values followed by the cw column values.
func (st *blockState) begin(lead []sqltypes.Value, n int) error {
	blk := core.Block{
		RowLo: int(lead[0].Int()), RowHi: int(lead[1].Int()),
		ColLo: int(lead[2].Int()), ColHi: int(lead[3].Int()),
	}
	rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
	if rw < 1 || cw < 1 || rw > core.MaxD || cw > core.MaxD {
		return fmt.Errorf("nlqudf: block rows [%d,%d) cols [%d,%d) out of range (max side %d)",
			blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi, core.MaxD)
	}
	want := rw + cw
	if diagonal(blk) {
		want = rw
	}
	if n != want {
		return fmt.Errorf("nlqudf: block expects %d dimension values, got %d", want, n)
	}
	if st.res == nil {
		st.blk = blk
		st.res = core.NewBlockResult(rw, cw)
		st.buf = make([]float64, want)
	} else if st.blk != blk {
		return fmt.Errorf("nlqudf: inconsistent block ranges across rows")
	}
	return nil
}

func diagonal(blk core.Block) bool { return blk.RowLo == blk.ColLo && blk.RowHi == blk.ColHi }

func (b *blockAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*blockState)
	if err := st.begin(args[:4], len(args)-4); err != nil {
		return err
	}
	if skip, err := unboxDims(st.buf, args[4:]); skip || err != nil {
		return err
	}
	st.res.Update(st.buf, 1)
	return nil
}

func (b *blockAgg) LeadArgs() int { return 4 }

func (b *blockAgg) AccumulateFloats(s udf.State, lead []sqltypes.Value, tile []float64, k int) error {
	st := s.(*blockState)
	if err := st.begin(lead, len(tile)/k); err != nil {
		return err
	}
	st.res.Update(tile, k)
	return nil
}

func (b *blockAgg) Merge(dst, src udf.State) error {
	ds, ss := dst.(*blockState), src.(*blockState)
	if ss.res == nil {
		return nil
	}
	if ds.res == nil {
		*ds = *ss
		return nil
	}
	if ds.blk != ss.blk {
		return fmt.Errorf("nlqudf: merging mismatched blocks")
	}
	ds.res.N += ss.res.N
	for i := range ds.res.Q {
		ds.res.Q[i] += ss.res.Q[i]
	}
	for i := range ds.res.L {
		ds.res.L[i] += ss.res.L[i]
		if ss.res.Min[i] < ds.res.Min[i] {
			ds.res.Min[i] = ss.res.Min[i]
		}
		if ss.res.Max[i] > ds.res.Max[i] {
			ds.res.Max[i] = ss.res.Max[i]
		}
	}
	return nil
}

func (b *blockAgg) Finalize(s udf.State) (sqltypes.Value, error) {
	st := s.(*blockState)
	if st.res == nil {
		return sqltypes.Null, nil
	}
	return sqltypes.NewVarChar(PackBlock(st.blk, st.res)), nil
}

// PackBlock serializes a block result for the UDF return value.
func PackBlock(blk core.Block, r *core.BlockResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%d,%d,%d;%s", blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi, strconv.FormatFloat(r.N, 'g', 17, 64))
	for _, v := range [][]float64{r.L, r.Min, r.Max, r.Q} {
		b.WriteByte(';')
		b.WriteString(udf.PackFloats(v))
	}
	return b.String()
}

// UnpackBlock parses a PackBlock string.
func UnpackBlock(s string) (core.Block, *core.BlockResult, error) {
	parts := strings.Split(s, ";")
	if len(parts) != 6 {
		return core.Block{}, nil, fmt.Errorf("nlqudf: packed block has %d sections, want 6", len(parts))
	}
	var blk core.Block
	if _, err := fmt.Sscanf(parts[0], "%d,%d,%d,%d", &blk.RowLo, &blk.RowHi, &blk.ColLo, &blk.ColHi); err != nil {
		return core.Block{}, nil, fmt.Errorf("nlqudf: bad block header %q: %w", parts[0], err)
	}
	n, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return core.Block{}, nil, fmt.Errorf("nlqudf: bad block n %q", parts[1])
	}
	res := &core.BlockResult{N: n}
	for i, v := range []*[]float64{&res.L, &res.Min, &res.Max, &res.Q} {
		if *v, err = udf.UnpackFloats(parts[2+i]); err != nil {
			return core.Block{}, nil, err
		}
	}
	rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
	if rw < 1 || cw < 1 || len(res.Q) != rw*cw || len(res.L) != rw || len(res.Min) != rw || len(res.Max) != rw {
		return core.Block{}, nil, fmt.Errorf("nlqudf: packed block shape mismatch")
	}
	return blk, res, nil
}
