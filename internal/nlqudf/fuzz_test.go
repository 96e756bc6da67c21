package nlqudf

import (
	"math"
	"testing"

	"repro/internal/core"
)

// sameFloats reports whether a and b hold the same float64 bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzUnpackBlock feeds arbitrary text to the packed nlq_block parser,
// which statsudf.DecodeBlockedSummary runs on every value a blocked
// summary returns. It must reject the text or accept a block that
// survives a PackBlock → UnpackBlock round trip bit for bit; and a plan
// assembled from that block, in slots whose shape it may not fit or one
// slot short, must return an error rather than panic.
func FuzzUnpackBlock(f *testing.F) {
	plan, err := core.PlanBlocks(5, 2)
	if err != nil {
		f.Fatal(err)
	}
	pts := [][]float64{{1, -2.5, 1e300, 0, 3}, {0, 7, -1e-300, -0.0, 2}}
	for _, blk := range plan.Blocks {
		r, err := core.ComputeBlock(blk, func(fn func(x []float64) error) error {
			for _, x := range pts {
				if err := fn(x); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(PackBlock(blk, r))
	}
	f.Add("")
	f.Add("0,1,0,1;1;2;2;2;4")
	f.Add("0,1,0,1;NaN;Inf;-Inf;0x1p-3;-0")
	f.Add("3,1,0,1;1;2;2;2;4")
	f.Add("-1,1,0,1;1;2|3;2|3;2|3;4|5")
	f.Add("0,2,0,2;1;1|2;1;2|3;1|2|3|4") // min one entry short
	f.Fuzz(func(t *testing.T, packed string) {
		blk, res, err := UnpackBlock(packed)
		if err != nil {
			return
		}
		blk2, res2, err := UnpackBlock(PackBlock(blk, res))
		if err != nil {
			t.Fatalf("UnpackBlock accepted %q but rejects its own re-pack: %v", packed, err)
		}
		if blk2 != blk || math.Float64bits(res2.N) != math.Float64bits(res.N) ||
			!sameFloats(res2.L, res.L) || !sameFloats(res2.Min, res.Min) ||
			!sameFloats(res2.Max, res.Max) || !sameFloats(res2.Q, res.Q) {
			t.Fatalf("round trip of %q changed the block:\n%+v %+v\n%+v %+v", packed, blk, res, blk2, res2)
		}
		// A plan over the block's rows, blocked by its row width, with
		// this result in every slot.
		d, width := blk.RowHi, blk.RowHi-blk.RowLo
		if d > 64 {
			return
		}
		p, err := core.PlanBlocks(d, width)
		if err != nil {
			return
		}
		parts := make([]*core.BlockResult, p.Calls())
		for i := range parts {
			parts[i] = res
		}
		_, _ = p.Assemble(parts) // an error whenever a slot's shape differs from the block's
		if _, err := p.Assemble(parts[1:]); err == nil {
			t.Fatalf("a plan of %d blocks assembled from %d results", p.Calls(), len(parts)-1)
		}
	})
}
