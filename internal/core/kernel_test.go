package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// kernelBodies are the bodies of the tile kernel this build has, each
// called directly rather than through update's dispatch: the Go loops
// everywhere, plus the assembly where kernel_amd64_test.go adds it.
var kernelBodies = []kernelBody{{"go", updateGo}}

type kernelBody struct {
	name string
	fn   func(mt MatrixType, l, mn, mx, q, xr, xc []float64, cw, stride, k int)
}

// allTileSizes is every k a kernel call may see, 1..TileRows.
var allTileSizes = func() (ks []int) {
	for k := 1; k <= TileRows; k++ {
		ks = append(ks, k)
	}
	return ks
}()

var matrixTypes = []MatrixType{Diagonal, Triangular, Full}

// hostileRows returns n points of d dimensions mixing ordinary values
// with the ones that expose operand order and rounding: ±Inf, ±0,
// subnormals, magnitudes whose products overflow and underflow, and
// NaNs, quiet and signalling, of either sign. Every point has its own
// NaN payload, so each add of a NaN product to a NaN accumulator shows
// which operand came first. Within one point the NaNs share sign and
// payload: which operand of x[a]·x[b] the compiler makes the first
// source is the one thing Go source cannot pin (see kernel.go).
func hostileRows(rng *rand.Rand, n, d int) [][]float64 {
	special := []float64{
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1e200, -1e200, 1e-200, 0x1p-537,
	}
	payload := uint64(rng.Intn(1 << 20))
	rows := make([][]float64, n)
	for r := range rows {
		payload++
		nan := uint64(0x7FF)<<52 | uint64(rng.Intn(2))<<63 | payload
		rows[r] = make([]float64, d)
		for a := range rows[r] {
			switch p := rng.Float64(); {
			case p < 0.12:
				rows[r][a] = math.Float64frombits(nan | uint64(rng.Intn(2))<<51)
			case p < 0.35:
				rows[r][a] = special[rng.Intn(len(special))]
			default:
				rows[r][a] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
	}
	return rows
}

// canary surrounds every framed slice; no kernel input produces it.
const canary = 424242.125

// framed returns a slice of n values starting off elements into a
// canary-filled array — an odd off means no 32-byte alignment — and a
// check that nothing around it was written.
func framed(n, off int) (inner []float64, intact func() bool) {
	whole := make([]float64, off+n+5)
	for i := range whole {
		whole[i] = canary
	}
	inner = whole[off : off+n : off+n]
	for i := range inner {
		inner[i] = 0
	}
	return inner, func() bool {
		for i, v := range whole {
			if (i < off || i >= off+n) && v != canary {
				return false
			}
		}
		return true
	}
}

// framedState is an empty rw×cw accumulator whose slices are framed.
func framedState(mt MatrixType, rw, cw, off int) (*NLQ, func() bool) {
	s := &NLQ{D: rw, Type: mt}
	var checks [4]func() bool
	s.L, checks[0] = framed(rw, off)
	s.Min, checks[1] = framed(rw, off+1)
	s.Max, checks[2] = framed(rw, off+2)
	s.Q, checks[3] = framed(rw*cw, off)
	for i := range s.Min {
		s.Min[i], s.Max[i] = math.Inf(1), math.Inf(-1)
	}
	return s, func() bool {
		return checks[0]() && checks[1]() && checks[2]() && checks[3]()
	}
}

// checkKernel folds the valid rows through every kernel body, k rows
// per call for each k in ks (state and tile at unaligned offsets, the
// tile's rows d or d+1 apart), and through UpdateBlock, and demands the
// bits plainUpdate leaves.
func checkKernel(t *testing.T, d int, mt MatrixType, rows [][]float64, valid []bool, ks []int) {
	t.Helper()
	want := MustNLQ(d, mt)
	var points [][]float64
	for r, x := range rows {
		if valid[r] {
			plainUpdate(want, x)
			points = append(points, x)
		}
	}
	for _, body := range kernelBodies {
		t.Run(body.name, func(t *testing.T) {
			for _, k := range ks {
				stride := d + k%2
				got, intact := framedState(mt, d, d, 1+d%3)
				tile, tileIntact := framed((k-1)*stride+d, 3)
				for rest := points; len(rest) > 0; {
					n := min(k, len(rest))
					for i, x := range rest[:n] {
						copy(tile[i*stride:], x)
					}
					got.N += float64(n)
					body.fn(mt, got.L, got.Min, got.Max, got.Q, tile, tile, d, stride, n)
					rest = rest[n:]
				}
				if !intact() || !tileIntact() {
					t.Fatalf("%v d=%d k=%d: wrote outside its slices", mt, d, k)
				}
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { requireSameBits(t, got, want) })
			}
		})
	}
	cols := make([][]float64, d)
	for a := range cols {
		cols[a] = make([]float64, len(rows))
		for r, row := range rows {
			cols[a][r] = row[a]
		}
	}
	blk := MustNLQ(d, mt)
	if err := blk.UpdateBlock(cols, valid); err != nil {
		t.Fatal(err)
	}
	t.Run("UpdateBlock", func(t *testing.T) { requireSameBits(t, blk, want) })
}

// TestKernelBodiesBitIdentical: every body of the tile kernel at every
// tile size, UpdateBlock (dense and masked) and the plain triple loop
// leave the same bits at every d and remainder — on inputs where
// operand order shows (NaN payloads, ±0) and where a fused multiply-add
// would (overflowing and subnormal products).
func TestKernelBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for d := 1; d <= 68; d++ {
		rows := hostileRows(rng, 11+d%8, d)
		dense, masked := make([]bool, len(rows)), make([]bool, len(rows))
		for r := range rows {
			dense[r], masked[r] = true, rng.Float64() >= 0.3
		}
		for _, mt := range matrixTypes {
			checkKernel(t, d, mt, rows, dense, allTileSizes)
			checkKernel(t, d, mt, rows, masked, allTileSizes)
		}
	}
}

// TestUpdateBlockMaskedTiles: UpdateBlock hands the kernel only valid
// rows, FillTile gathering them across masked ones. Stretches of
// TileRows rows with 0, 1, 7 and all of them valid — the one valid row
// and the one masked row at every position — and a short last stretch
// leave plainUpdate's bits.
func TestUpdateBlockMaskedTiles(t *testing.T) {
	var valid []bool
	tile := func(mask uint) {
		for i := 0; i < TileRows; i++ {
			valid = append(valid, mask>>i&1 == 1)
		}
	}
	all := uint(1)<<TileRows - 1
	tile(0)
	for i := 0; i < TileRows; i++ {
		tile(1 << i)
		tile(all &^ (1 << i))
	}
	tile(all)
	tile(0)
	valid = append(valid, true, false, true)
	rng := rand.New(rand.NewSource(35))
	for _, d := range []int{1, 3, 4, 5, 32} {
		rows := hostileRows(rng, len(valid), d)
		for _, mt := range matrixTypes {
			checkKernel(t, d, mt, rows, valid, []int{TileRows})
		}
	}
}

// TestKernelBodiesRectangular is the same for the blocked strategy's
// rw×cw update at shapes where neither side is a multiple of four: a
// tile's rows hold the row range, then the column range.
func TestKernelBodiesRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, rw := range []int{1, 2, 3, 5, 6, 7, 9, 13, 63} {
		for _, cw := range []int{1, 3, 5, 7, 11, 37, 61} {
			points := hostileRows(rng, 9, rw+cw)
			want := NewBlockResult(rw, cw)
			for _, p := range points {
				plainBlockUpdate(want, p[:rw], p[rw:])
			}
			stride := rw + cw
			for _, body := range kernelBodies {
				t.Run(fmt.Sprintf("%s/%dx%d", body.name, rw, cw), func(t *testing.T) {
					for _, k := range allTileSizes {
						got, intact := framedState(Full, rw, cw, 1+cw%3)
						tile, tileIntact := framed(k*stride, 1)
						for rest := points; len(rest) > 0; {
							n := min(k, len(rest))
							for i, p := range rest[:n] {
								copy(tile[i*stride:], p)
							}
							got.N += float64(n)
							body.fn(Full, got.L, got.Min, got.Max, got.Q, tile, tile[rw:], cw, stride, n)
							rest = rest[n:]
						}
						if !intact() || !tileIntact() {
							t.Fatalf("k=%d: wrote outside its slices", k)
						}
						t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { requireSameBits(t, got, blockAsNLQ(want)) })
					}
				})
			}
		}
	}
}

// FuzzUpdateKernel reads d, the matrix type and the tile size, a row
// mask and raw float64 bits from the input and runs checkKernel on them.
func FuzzUpdateKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for _, d := range []int{1, 4, 7, 33} {
		seed := []byte{byte(d - 1), byte(d%3 + 3*(d%TileRows)), 0x24}
		for _, row := range hostileRows(rng, 3, d) {
			for _, v := range row {
				seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
			}
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d, mt, k, mask := 1+int(data[0])%68, MatrixType(data[1]%3), 1+int(data[1]/3)%TileRows, data[2]
		data = data[3:]
		rows := make([][]float64, min(len(data)/(8*d), 16))
		valid := make([]bool, len(rows))
		for r := range rows {
			rows[r] = make([]float64, d)
			var nan float64 // one NaN sign and payload per point, as in hostileRows
			for a := range rows[r] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(r*d+a):]))
				if v != v {
					if nan == 0 {
						nan = v
					}
					v = nan
				}
				rows[r][a] = v
			}
			valid[r] = mask>>(r%8)&1 == 0
		}
		checkKernel(t, d, mt, rows, valid, []int{k})
	})
}

// TestKernelNotFusedOnArm64 cross-compiles the package for arm64, where
// the compiler fuses x*y + z into one rounding unless a conversion
// forbids it, and fails if a fused multiply-add is attributed to the
// files holding kernel arithmetic (Update, UpdateBlock, Remove): a
// database or a cluster that spans architectures relies on it.
func TestKernelNotFusedOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%s", err, out)
	}
	kernelOp := regexp.MustCompile(`/(?:kernel|nlq)\.go:\d+\)\s+(\S+)`)
	fused := regexp.MustCompile(`^FN?M(ADD|SUB)`)
	multiplies := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := kernelOp.FindStringSubmatch(line)
		switch {
		case m == nil:
		case m[1] == "FMULD":
			multiplies++
		case fused.MatchString(m[1]):
			t.Errorf("fused multiply-add in the kernel: %s", strings.TrimSpace(line))
		}
	}
	if multiplies == 0 {
		t.Fatal("the arm64 listing shows no multiply in kernel.go or nlq.go; the check is not looking at the kernel")
	}
}
