package core

import (
	"math"
	"math/rand"
	"testing"
)

// naiveFill is FillTile's reference: one valid row at a time, each
// value gathered on its own.
func naiveFill(tile []float64, k int, cols [][]float64, valid []bool, r int) (int, int) {
	w := len(cols)
	for ; r < len(valid) && k < TileRows; r++ {
		if valid[r] {
			for a := range cols {
				tile[k*w+a] = cols[a][r]
			}
			k++
		}
	}
	return k, r
}

// untouched marks the slots of a tile FillTile must not write.
var untouched = math.Float64frombits(0x7ff8_0000_dead_beef)

// fillBlock returns a block of w columns and the given rows whose
// every value is distinct, so a value moved to a wrong slot shows.
func fillBlock(w, rows int) [][]float64 {
	cols := make([][]float64, w)
	for a := range cols {
		cols[a] = make([]float64, rows)
		for r := range cols[a] {
			cols[a][r] = float64(a*1000 + r + 1)
		}
	}
	return cols
}

// checkFill runs FillTile and naiveFill on the same tile — k staged rows
// of their own values, every later slot and a row of spare capacity
// marked untouched — and demands the same result, bit for bit, and
// nothing written past the rows the tile ends up holding.
func checkFill(t *testing.T, w, k int, valid []bool, r int) {
	t.Helper()
	cols := fillBlock(w, len(valid))
	got := make([]float64, (TileRows+1)*w)
	for i := range got {
		got[i] = untouched
		if i < k*w {
			got[i] = -float64(i + 1)
		}
	}
	want := append([]float64(nil), got...)
	gk, gr := FillTile(got[:TileRows*w], k, cols, valid, r)
	wk, wr := naiveFill(want, k, cols, valid, r)
	if gk != wk || gr != wr {
		t.Fatalf("w=%d k=%d r=%d valid=%v: FillTile returned (%d, %d), want (%d, %d)", w, k, r, valid, gk, gr, wk, wr)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("w=%d k=%d r=%d valid=%v: slot %d (row %d) is %v, want %v", w, k, r, valid, i, i/w, got[i], want[i])
		}
		if i >= gk*w && math.Float64bits(got[i]) != math.Float64bits(untouched) {
			t.Fatalf("w=%d k=%d r=%d: wrote slot %d past the %d rows held", w, k, r, i, gk)
		}
	}
}

// TestFillTileMatchesNaiveGather: FillTile equals the row-at-a-time
// gather onto tiles already holding 0 … TileRows rows, from start rows on
// and off a multiple of TileRows, under masks all set, none set, one row
// set, alternating and random, over blocks whose tail past the start is
// shorter than, as long as and longer than a tile.
func TestFillTileMatchesNaiveGather(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	masks := []func(rows int) []bool{
		func(rows int) []bool { // all
			v := make([]bool, rows)
			for i := range v {
				v[i] = true
			}
			return v
		},
		func(rows int) []bool { return make([]bool, rows) }, // none
		func(rows int) []bool { // one
			v := make([]bool, rows)
			if rows > 0 {
				v[rng.Intn(rows)] = true
			}
			return v
		},
		func(rows int) []bool { // alternating
			v := make([]bool, rows)
			for i := range v {
				v[i] = i%2 == 0
			}
			return v
		},
		func(rows int) []bool { // random
			v := make([]bool, rows)
			for i := range v {
				v[i] = rng.Float64() < 0.7
			}
			return v
		},
	}
	for _, w := range []int{1, 3, 8, 33} {
		for k := 0; k <= TileRows; k++ {
			for _, r := range []int{0, 1, 3, 8, 13} {
				for _, tail := range []int{0, 1, 5, 7, 8, 9, 20} {
					for _, mask := range masks {
						checkFill(t, w, k, mask(r+tail), r)
					}
				}
			}
		}
	}
}

// FuzzFillTile reads w, the staged row count k, the start row r, the
// block's length and its row mask from the input and runs checkFill.
func FuzzFillTile(f *testing.F) {
	f.Add([]byte{2, 0, 0, 16, 0xff, 0xff})
	f.Add([]byte{0, 3, 5, 9, 0xaa, 0x01})
	f.Add([]byte{32, 8, 7, 30, 0xf7, 0xff, 0x7f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w, k, r := 1+int(data[0])%40, int(data[1])%(TileRows+1), int(data[2])%24
		valid := make([]bool, r+int(data[3])%40)
		for i := range valid {
			if b := 4 + i/8; b < len(data) {
				valid[i] = data[b]>>(i%8)&1 == 1
			}
		}
		checkFill(t, w, k, valid, r)
	})
}
