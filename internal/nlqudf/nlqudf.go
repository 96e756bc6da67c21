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
// engine-level equivalent of Teradata's CREATE FUNCTION.
func Register(d *db.DB) error {
	for _, a := range []udf.Aggregate{
		&nlqAgg{name: "nlq_list", packed: false},
		&nlqAgg{name: "nlq_str", packed: true},
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

type nlqAgg struct {
	name   string
	packed bool
}

func (a *nlqAgg) Name() string { return a.name }

func (a *nlqAgg) CheckArgs(n int) error {
	min := 3
	if a.packed && n != 3 {
		return fmt.Errorf("nlqudf: %s expects (d, mtype, packed_vector)", a.name)
	}
	if n < min {
		return fmt.Errorf("nlqudf: %s expects at least %d arguments", a.name, min)
	}
	if !a.packed && n-2 > core.MaxD {
		return fmt.Errorf("nlqudf: %s supports at most d=%d dimensions per call; use nlq_block for more", a.name, core.MaxD)
	}
	return nil
}

func (a *nlqAgg) Init(h *udf.Heap) (udf.State, error) {
	// Static allocation for the maximum dimensionality.
	if err := h.Alloc(8 * (core.MaxD*core.MaxD + 3*core.MaxD + 2)); err != nil {
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

func (a *nlqAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*nlqState)
	if st.nlq == nil || args[0] != st.hdr[0] || args[1] != st.hdr[1] {
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
	}
	d := st.nlq.D

	var x []float64
	if a.packed {
		// String style: parse the packed vector (the per-row O(d)
		// number-formatting overhead the paper measures).
		if args[2].IsNull() {
			return nil // NULL vector: skip the row, like SQL aggregates
		}
		vals, err := udf.UnpackFloats(args[2].Str())
		if err != nil {
			return fmt.Errorf("nlqudf: row vector: %w", err)
		}
		if len(vals) != d {
			return fmt.Errorf("nlqudf: packed vector has %d dims, want %d", len(vals), d)
		}
		x = vals
	} else {
		if len(args) != d+2 {
			return fmt.Errorf("nlqudf: got %d vector arguments, want d=%d", len(args)-2, d)
		}
		x = st.buf[:d]
		if skip, err := unboxDims(x, args[2:]); skip || err != nil {
			return err
		}
	}
	return st.nlq.Update(x)
}

// unboxDims is the list style's argument unboxing: it copies the
// dimension values vs into x (of the same length). All-DOUBLE rows — a
// table's usual case — are one sqltypes.UnboxDoubles pass; from the
// first other value on, each goes through the general rules: a NULL
// skips the row like SQL aggregates do, BIGINT widens, a numeric VARCHAR
// parses, anything else is an error.
func unboxDims(x []float64, vs []sqltypes.Value) (skip bool, err error) {
	for i := sqltypes.UnboxDoubles(x, vs); i < len(vs); i++ {
		v := vs[i]
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

func (a *nlqAgg) Merge(dst, src udf.State) error {
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

func (a *nlqAgg) Finalize(s udf.State) (sqltypes.Value, error) {
	st := s.(*nlqState)
	if st.nlq == nil {
		return sqltypes.Null, nil // no qualifying rows
	}
	return sqltypes.NewVarChar(st.nlq.Pack()), nil
}

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

func (b *blockAgg) Init(h *udf.Heap) (udf.State, error) {
	if err := h.Alloc(8 * (core.MaxD*core.MaxD + 3*core.MaxD + 2)); err != nil {
		return nil, err
	}
	return &blockState{}, nil
}

// Accumulate folds one row. The call site passes only the block's own
// dimension values (the paper's calls each receive their subscript
// ranges): for a diagonal block (row range == col range) the rw row
// values; otherwise the rw row values followed by the cw column values.
func (b *blockAgg) Accumulate(s udf.State, args []sqltypes.Value) error {
	st := s.(*blockState)
	blk := core.Block{
		RowLo: int(args[0].Int()), RowHi: int(args[1].Int()),
		ColLo: int(args[2].Int()), ColHi: int(args[3].Int()),
	}
	rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
	if rw < 1 || cw < 1 || rw > core.MaxD || cw > core.MaxD {
		return fmt.Errorf("nlqudf: block rows [%d,%d) cols [%d,%d) out of range (max side %d)",
			blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi, core.MaxD)
	}
	diagonal := blk.RowLo == blk.ColLo && blk.RowHi == blk.ColHi
	want := rw + cw
	if diagonal {
		want = rw
	}
	if len(args)-4 != want {
		return fmt.Errorf("nlqudf: block expects %d dimension values, got %d", want, len(args)-4)
	}
	if st.res == nil {
		st.blk = blk
		st.res = core.NewBlockResult(rw, cw)
		st.buf = make([]float64, want)
	} else if st.blk != blk {
		return fmt.Errorf("nlqudf: inconsistent block ranges across rows")
	}
	x := st.buf
	if skip, err := unboxDims(x, args[4:]); skip || err != nil {
		return err
	}
	xr := x[:rw]
	xc := xr
	if !diagonal {
		xc = x[rw:]
	}
	st.res.Update(xr, xc)
	return nil
}

func (b *blockAgg) Merge(dst, src udf.State) error {
	ds, ss := dst.(*blockState), src.(*blockState)
	if ss.res == nil {
		return nil
	}
	if ds.res == nil {
		ds.blk, ds.res = ss.blk, ss.res
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
	fmt.Fprintf(&b, "%d,%d,%d,%d;%s;", blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi, strconv.FormatFloat(r.N, 'g', 17, 64))
	b.WriteString(udf.PackFloats(r.L))
	b.WriteByte(';')
	b.WriteString(udf.PackFloats(r.Min))
	b.WriteByte(';')
	b.WriteString(udf.PackFloats(r.Max))
	b.WriteByte(';')
	b.WriteString(udf.PackFloats(r.Q))
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
	if res.L, err = udf.UnpackFloats(parts[2]); err != nil {
		return core.Block{}, nil, err
	}
	if res.Min, err = udf.UnpackFloats(parts[3]); err != nil {
		return core.Block{}, nil, err
	}
	if res.Max, err = udf.UnpackFloats(parts[4]); err != nil {
		return core.Block{}, nil, err
	}
	if res.Q, err = udf.UnpackFloats(parts[5]); err != nil {
		return core.Block{}, nil, err
	}
	rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
	if rw < 1 || cw < 1 || len(res.Q) != rw*cw || len(res.L) != rw {
		return core.Block{}, nil, fmt.Errorf("nlqudf: packed block shape mismatch")
	}
	return blk, res, nil
}
