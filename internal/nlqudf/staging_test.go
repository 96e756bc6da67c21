package nlqudf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// stagingCase drives nlq_list's aggregate phases directly beside a
// reference core.NLQ per group that takes one Update per accepted row,
// in the same order.
type stagingCase struct {
	t    *testing.T
	rng  *rand.Rand
	d    int
	mt   core.MatrixType
	lead []sqltypes.Value
}

// point returns d values, now and then an infinity, a signed zero or a
// NaN among ordinary ones.
func (c *stagingCase) point() []float64 {
	x := make([]float64, c.d)
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

// feed applies one random row-phase call — a float row, a boxed row
// (sometimes NULL-skipped, sometimes with BIGINT values) or a block —
// to st and the same rows to *ref, which is created, as st's summary
// is, by the first call of any kind.
func (c *stagingCase) feed(st udf.State, ref **core.NLQ) {
	c.t.Helper()
	if *ref == nil {
		*ref = core.MustNLQ(c.d, c.mt)
	}
	agg := nlqAgg{}
	switch p := c.rng.Float64(); {
	case p < 0.75:
		x := c.point()
		if err := agg.AccumulateFloats(st, c.lead, x); err != nil {
			c.t.Fatal(err)
		}
		(*ref).Update(x)
	case p < 0.9:
		x := c.point()
		args := append([]sqltypes.Value(nil), c.lead...)
		null := c.rng.Float64() < 0.3
		for a, v := range x {
			switch {
			case null && a == c.d-1:
				args = append(args, sqltypes.Null)
			case c.rng.Float64() < 0.2:
				x[a] = float64(c.rng.Intn(1000) - 500)
				args = append(args, sqltypes.NewBigInt(int64(x[a])))
			default:
				args = append(args, sqltypes.NewDouble(v))
			}
		}
		if err := agg.Accumulate(st, args); err != nil {
			c.t.Fatal(err)
		}
		if !null {
			(*ref).Update(x)
		}
	default:
		rows := c.rng.Intn(20)
		cols := make([][]float64, c.d)
		for a := range cols {
			cols[a] = make([]float64, rows)
		}
		valid := make([]bool, rows)
		for r := range valid {
			x := c.point()
			for a, v := range x {
				cols[a][r] = v
			}
			if valid[r] = c.rng.Float64() < 0.7; valid[r] {
				(*ref).Update(x)
			}
		}
		if err := agg.AccumulateBlock(st, c.lead, cols, valid); err != nil {
			c.t.Fatal(err)
		}
	}
}

// check finalizes st and demands ref's packed bits (NULL for no call).
func (c *stagingCase) check(st udf.State, ref *core.NLQ) {
	c.t.Helper()
	got, err := nlqAgg{}.Finalize(st)
	if err != nil {
		c.t.Fatal(err)
	}
	want := sqltypes.Null
	if ref != nil {
		want = sqltypes.NewVarChar(ref.Pack())
	}
	if got != want {
		c.t.Fatalf("d=%d %v: finalize gave\n%v\nwant one Update per row in order:\n%v", c.d, c.mt, got, want)
	}
}

func (c *stagingCase) init() udf.State {
	c.t.Helper()
	st, err := nlqAgg{}.Init(udf.NewHeap(udf.SegmentSize))
	if err != nil {
		c.t.Fatal(err)
	}
	return st
}

// TestStagingIsInvisible: nlq_list stages float rows for the tile
// kernel, and that must never show. Random interleavings of float rows,
// boxed rows (NULL-skipped ones included), blocks, Merge of a partial
// fed the same way and Finalize mid-stream, over one group or three
// (GROUP BY keeps a state per group), give the packed bits of one
// NLQ.Update per row in arrival order, with NLQ.Merge where the
// aggregate merged.
func TestStagingIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, d := range []int{1, 3, 4, 5, 32, 64} {
		for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
			for _, groups := range []int{1, 3} {
				for trial := 0; trial < 3; trial++ {
					c := &stagingCase{t: t, rng: rng, d: d, mt: mt,
						lead: []sqltypes.Value{sqltypes.NewBigInt(int64(d)), sqltypes.NewVarChar(mt.String())}}
					states, refs := make([]udf.State, groups), make([]*core.NLQ, groups)
					for g := range states {
						states[g] = c.init()
					}
					for op := 0; op < 120; op++ {
						g := rng.Intn(groups)
						switch p := rng.Float64(); {
						case p < 0.9:
							c.feed(states[g], &refs[g])
						case p < 0.96: // merge a partial, as the coordinator of partitions does
							src, refSrc := c.init(), (*core.NLQ)(nil)
							for n := rng.Intn(20); n > 0; n-- {
								c.feed(src, &refSrc)
							}
							if err := (nlqAgg{}).Merge(states[g], src); err != nil {
								t.Fatal(err)
							}
							switch {
							case refSrc == nil:
							case refs[g] == nil:
								refs[g] = refSrc
							default:
								if err := refs[g].Merge(refSrc); err != nil {
									t.Fatal(err)
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
			}
		}
	}
}

// TestHeapChargeCoversScratch: Init charges the heap for the whole
// MaxD state — the NLQ, the scratch row and the staging tile — and that
// fits one 64 KB segment, while the same state at d = MaxD+32 would not.
func TestHeapChargeCoversScratch(t *testing.T) {
	h := udf.NewHeap(udf.SegmentSize)
	s, err := nlqAgg{}.Init(h)
	if err != nil {
		t.Fatal(err)
	}
	if h.Used() != stateBytes(core.MaxD) {
		t.Fatalf("Init charged %d bytes, want stateBytes(MaxD) = %d", h.Used(), stateBytes(core.MaxD))
	}
	lead := []sqltypes.Value{sqltypes.NewBigInt(core.MaxD), sqltypes.NewVarChar("full")}
	if err := (nlqAgg{}).AccumulateFloats(s, lead, make([]float64, core.MaxD)); err != nil {
		t.Fatal(err)
	}
	st := s.(*nlqState)
	if used := st.nlq.HeapBytes() + 8*(cap(st.buf)+cap(st.tile)); used != h.Used() {
		t.Fatalf("a d=MaxD state holds %d bytes, Init charged %d", used, h.Used())
	}
	if stateBytes(core.MaxD) > udf.SegmentSize {
		t.Fatalf("a d=MaxD state (%d bytes) does not fit the %d-byte segment", stateBytes(core.MaxD), udf.SegmentSize)
	}
	if stateBytes(core.MaxD+32) <= udf.SegmentSize {
		t.Fatalf("a d=MaxD+32 state (%d bytes) fits the %d-byte segment", stateBytes(core.MaxD+32), udf.SegmentSize)
	}
}
