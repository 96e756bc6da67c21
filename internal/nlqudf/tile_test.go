package nlqudf

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// tileRef is the reference a tile case checks a state against: one
// Update per accepted row, in order, and the aggregate's merge.
type tileRef interface {
	update(x []float64)
	merge(src tileRef) error
	pack() sqltypes.Value
}

type nlqRef struct{ q *core.NLQ }

func (r *nlqRef) update(x []float64)      { r.q.Update(x) }
func (r *nlqRef) merge(src tileRef) error { return r.q.Merge(src.(*nlqRef).q) }
func (r *nlqRef) pack() sqltypes.Value    { return sqltypes.NewVarChar(r.q.Pack()) }

type blockRef struct {
	blk core.Block
	res *core.BlockResult
}

func (r *blockRef) update(x []float64) {
	r.res.Update(x, 1)
}

func (r *blockRef) merge(src tileRef) error {
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
	return nil
}

func (r *blockRef) pack() sqltypes.Value { return sqltypes.NewVarChar(PackBlock(r.blk, r.res)) }

// tileCase drives one float-bodied aggregate's phases directly — nlq_list
// or nlq_block, w float arguments after lead — beside a reference per
// group, made, as the state's summary is, by the first call of any kind.
type tileCase struct {
	t      *testing.T
	rng    *rand.Rand
	agg    udf.FloatAggregate
	lead   []sqltypes.Value
	w      int
	newRef func() tileRef
}

func listCase(t *testing.T, rng *rand.Rand, d int, mt core.MatrixType) *tileCase {
	return &tileCase{t: t, rng: rng, agg: nlqAgg{}, w: d,
		lead:   []sqltypes.Value{sqltypes.NewBigInt(int64(d)), sqltypes.NewVarChar(mt.String())},
		newRef: func() tileRef { return &nlqRef{core.MustNLQ(d, mt)} }}
}

func blockCase(t *testing.T, rng *rand.Rand, blk core.Block) *tileCase {
	rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
	w := rw + cw
	if diagonal(blk) {
		w = rw
	}
	lead := make([]sqltypes.Value, 4)
	for i, v := range []int{blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi} {
		lead[i] = sqltypes.NewBigInt(int64(v))
	}
	return &tileCase{t: t, rng: rng, agg: &blockAgg{}, lead: lead, w: w,
		newRef: func() tileRef { return &blockRef{blk, core.NewBlockResult(rw, cw)} }}
}

// point returns w values, now and then an infinity, a signed zero or a
// NaN among ordinary ones.
func (c *tileCase) point() []float64 {
	x := make([]float64, c.w)
	for a := range x {
		switch p := c.rng.Float64(); {
		case p < 0.01:
			x[a] = math.NaN()
		case p < 0.02:
			x[a] = math.Inf(1 - 2*c.rng.Intn(2))
		case p < 0.03:
			x[a] = math.Copysign(0, -1)
		default:
			x[a] = c.rng.NormFloat64() * math.Pow(10, float64(c.rng.Intn(7)-3))
		}
	}
	return x
}

// feed applies one random row-phase call — a tile of 1 to TileRows
// rows, a boxed row (sometimes NULL-skipped, with BIGINT and numeric
// VARCHAR values among the doubles) or a block gathered into tiles — to
// st and the same rows to *ref.
func (c *tileCase) feed(st udf.State, ref *tileRef) {
	c.t.Helper()
	fresh := *ref == nil
	if fresh {
		*ref = c.newRef()
	}
	switch p := c.rng.Float64(); {
	case p < 0.75:
		k := 1 + c.rng.Intn(core.TileRows)
		tile := make([]float64, 0, k*c.w)
		for r := 0; r < k; r++ {
			x := c.point()
			tile = append(tile, x...)
			(*ref).update(x)
		}
		if err := c.agg.AccumulateFloats(st, c.lead, tile, k); err != nil {
			c.t.Fatal(err)
		}
	case p < 0.9:
		x := c.point()
		args := append([]sqltypes.Value(nil), c.lead...)
		null := c.rng.Float64() < 0.3
		for a, v := range x {
			switch q := c.rng.Float64(); {
			case null && a == c.w-1:
				args = append(args, sqltypes.Null)
			case q < 0.2:
				x[a] = float64(c.rng.Intn(1000) - 500)
				args = append(args, sqltypes.NewBigInt(int64(x[a])))
			case q < 0.4:
				args = append(args, sqltypes.NewVarChar(strconv.FormatFloat(v, 'g', -1, 64)))
			default:
				args = append(args, sqltypes.NewDouble(v))
			}
		}
		if err := c.agg.Accumulate(st, args); err != nil {
			c.t.Fatal(err)
		}
		if !null {
			(*ref).update(x)
		}
	default:
		if !c.block(st, *ref) && fresh {
			*ref = nil // no call: the state is as Init left it
		}
	}
}

// block drives a block the way the executor does: a tile already holds
// 0 to TileRows staged rows, core.FillTile gathers the block's valid
// rows onto it from a random start row, AccumulateFloats folds each
// full tile and, at the end, the rest. It reports whether it made a call.
func (c *tileCase) block(st udf.State, ref tileRef) (called bool) {
	c.t.Helper()
	tile, k := make([]float64, core.TileRows*c.w), c.rng.Intn(core.TileRows+1)
	for i := 0; i < k; i++ {
		x := c.point()
		copy(tile[i*c.w:], x)
		ref.update(x)
	}
	rows := c.rng.Intn(40)
	start := c.rng.Intn(rows + 1)
	cols := make([][]float64, c.w)
	for a := range cols {
		cols[a] = make([]float64, rows)
	}
	valid := make([]bool, rows)
	for r := range valid {
		x := c.point()
		for a, v := range x {
			cols[a][r] = v
		}
		if valid[r] = c.rng.Float64() < 0.7; valid[r] && r >= start {
			ref.update(x)
		}
	}
	fold := func() {
		if k > 0 {
			if err := c.agg.AccumulateFloats(st, c.lead, tile[:k*c.w], k); err != nil {
				c.t.Fatal(err)
			}
			called = true
		}
		k = 0
	}
	for r := start; r < rows; {
		if k == core.TileRows {
			fold()
		}
		k, r = core.FillTile(tile, k, cols, valid, r)
	}
	fold()
	return called
}

// check finalizes st and demands ref's packed bits (NULL for no call).
func (c *tileCase) check(st udf.State, ref tileRef) {
	c.t.Helper()
	got, err := c.agg.Finalize(st)
	if err != nil {
		c.t.Fatal(err)
	}
	want := sqltypes.Null
	if ref != nil {
		want = ref.pack()
	}
	if got != want {
		c.t.Fatalf("%s %v: finalize gave\n%v\nwant one Update per row in order:\n%v", c.agg.Name(), c.lead, got, want)
	}
}

func (c *tileCase) init() udf.State {
	c.t.Helper()
	st, err := c.agg.Init(udf.NewHeap(udf.SegmentSize))
	if err != nil {
		c.t.Fatal(err)
	}
	return st
}

// run interleaves random calls over one group or three (GROUP BY keeps
// a state per group): row-phase calls, Merge of a partial fed the same
// way, as the coordinator of partitions merges, and Finalize mid-stream.
func (c *tileCase) run(groups int) {
	c.t.Helper()
	states, refs := make([]udf.State, groups), make([]tileRef, groups)
	for g := range states {
		states[g] = c.init()
	}
	for op := 0; op < 120; op++ {
		g := c.rng.Intn(groups)
		switch p := c.rng.Float64(); {
		case p < 0.9:
			c.feed(states[g], &refs[g])
		case p < 0.96:
			src, refSrc := c.init(), tileRef(nil)
			for n := c.rng.Intn(20); n > 0; n-- {
				c.feed(src, &refSrc)
			}
			if err := c.agg.Merge(states[g], src); err != nil {
				c.t.Fatal(err)
			}
			switch {
			case refSrc == nil:
			case refs[g] == nil:
				refs[g] = refSrc
			default:
				if err := refs[g].merge(refSrc); err != nil {
					c.t.Fatal(err)
				}
			}
		default:
			c.check(states[g], refs[g])
		}
	}
	for g := range states {
		c.check(states[g], refs[g])
	}
}

// TestTileContract: a float body folds a tile of k rows exactly as k
// one-row calls. Random interleavings of tiles (k = 1 … TileRows), boxed
// rows (NULL-skipped ones, BIGINT and numeric VARCHAR values), blocks
// gathered by core.FillTile onto partly staged tiles, Merge of a partial
// fed the same way and Finalize mid-stream, over one group or three,
// give nlq_list the packed bits of one NLQ.Update per row in arrival
// order, and nlq_block those of one BlockResult.Update per row, with the
// aggregate's merge where it merged.
func TestTileContract(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var cases []*tileCase
	for _, d := range []int{1, 3, 4, 5, 32, 64} {
		for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
			cases = append(cases, listCase(t, rng, d, mt))
		}
	}
	for _, blk := range []core.Block{
		{RowLo: 0, RowHi: 1, ColLo: 0, ColHi: 1},
		{RowLo: 0, RowHi: 3, ColLo: 0, ColHi: 3},
		{RowLo: 0, RowHi: 2, ColLo: 2, ColHi: 7},
		{RowLo: 16, RowHi: 48, ColLo: 0, ColHi: 16},
	} {
		cases = append(cases, blockCase(t, rng, blk))
	}
	for _, c := range cases {
		for _, groups := range []int{1, 3} {
			for trial := 0; trial < 3; trial++ {
				c.run(groups)
			}
		}
	}
}

// TestHeapChargeCoversScratch: Init charges the heap for the whole
// MaxD state — for nlq_list the NLQ and the scratch row, 34 832 bytes;
// for nlq_block a MaxD × MaxD off-diagonal result, its bounds and its
// 2·MaxD scratch row, 35 368 bytes — and that fits one 64 KB segment,
// while the nlq_list state at d = MaxD+32 would not.
func TestHeapChargeCoversScratch(t *testing.T) {
	h := udf.NewHeap(udf.SegmentSize)
	s, err := nlqAgg{}.Init(h)
	if err != nil {
		t.Fatal(err)
	}
	if h.Used() != stateBytes(core.MaxD) || h.Used() != 34832 {
		t.Fatalf("Init charged %d bytes, want stateBytes(MaxD) = %d = 34832", h.Used(), stateBytes(core.MaxD))
	}
	lead := []sqltypes.Value{sqltypes.NewBigInt(core.MaxD), sqltypes.NewVarChar("full")}
	if err := (nlqAgg{}).AccumulateFloats(s, lead, make([]float64, core.MaxD), 1); err != nil {
		t.Fatal(err)
	}
	st := s.(*nlqState)
	if used := st.nlq.HeapBytes() + 8*cap(st.buf); used != h.Used() {
		t.Fatalf("a d=MaxD state holds %d bytes, Init charged %d", used, h.Used())
	}
	if stateBytes(core.MaxD) > udf.SegmentSize {
		t.Fatalf("a d=MaxD state (%d bytes) does not fit the %d-byte segment", stateBytes(core.MaxD), udf.SegmentSize)
	}
	if stateBytes(core.MaxD+32) <= udf.SegmentSize {
		t.Fatalf("a d=MaxD+32 state (%d bytes) fits the %d-byte segment", stateBytes(core.MaxD+32), udf.SegmentSize)
	}

	h = udf.NewHeap(udf.SegmentSize)
	if s, err = (&blockAgg{}).Init(h); err != nil {
		t.Fatal(err)
	}
	if h.Used() != blockStateBytes(core.MaxD, core.MaxD) || h.Used() != 35368 {
		t.Fatalf("nlq_block Init charged %d bytes, want blockStateBytes(MaxD, MaxD) = %d = 35368", h.Used(), blockStateBytes(core.MaxD, core.MaxD))
	}
	lead = []sqltypes.Value{sqltypes.NewBigInt(core.MaxD), sqltypes.NewBigInt(2 * core.MaxD), sqltypes.NewBigInt(0), sqltypes.NewBigInt(core.MaxD)}
	if err := (&blockAgg{}).AccumulateFloats(s, lead, make([]float64, 2*core.MaxD), 1); err != nil {
		t.Fatal(err)
	}
	bs := s.(*blockState)
	r := bs.res
	// n, then Q, L, min and max; the four bounds; the scratch row.
	if used := 8*(1+len(r.Q)+len(r.L)+len(r.Min)+len(r.Max)) + 8*4 + 8*cap(bs.buf); used != h.Used() {
		t.Fatalf("a MaxD × MaxD nlq_block state holds %d bytes, Init charged %d", used, h.Used())
	}
	if h.Used() > udf.SegmentSize {
		t.Fatalf("a MaxD × MaxD nlq_block state (%d bytes) does not fit the %d-byte segment", h.Used(), udf.SegmentSize)
	}
}
