//go:build unix

package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float64s whose last byte is the last byte before an
// inaccessible page: reading or writing one element past the slice
// faults.
func guarded(t *testing.T, n int) []float64 {
	t.Helper()
	page := os.Getpagesize()
	usable := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, usable+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[usable:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[usable-8*n])), n)
}

// guardedState is an empty rw×cw accumulator with every slice flush
// against a guard page.
func guardedState(t *testing.T, mt MatrixType, rw, cw int) *NLQ {
	s := &NLQ{D: rw, Type: mt, L: guarded(t, rw), Min: guarded(t, rw), Max: guarded(t, rw), Q: guarded(t, rw*cw)}
	for i := range s.Min {
		s.Min[i], s.Max[i] = math.Inf(1), math.Inf(-1)
	}
	return s
}

// TestKernelStaysInBounds runs every kernel body at every tile size
// with the tile, L, min, max and Q each ending at a guard page, so the
// tile's last row, the last block of Q and every tail are flush against
// it: a load or store past len faults. The shapes put each block
// position and remainder of every mode last. A rectangular tile's rows
// hold both ranges, so it runs twice: row range first, then column
// range first, each range's last row in turn flush.
func TestKernelStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, body := range kernelBodies {
		for d := 1; d <= 20; d++ {
			for _, mt := range matrixTypes {
				t.Run(body.name, func(t *testing.T) {
					defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
					for _, k := range allTileSizes {
						rows := hostileRows(rng, k+1, d)
						got, want, tile := guardedState(t, mt, d, d), MustNLQ(d, mt), guarded(t, k*d)
						for _, part := range [][][]float64{rows[:k], rows[k:]} { // a tile of k, then of one
							x := tile[len(tile)-len(part)*d:]
							for i, row := range part {
								copy(x[i*d:], row)
								plainUpdate(want, row)
							}
							got.N += float64(len(part))
							body.fn(mt, got.L, got.Min, got.Max, got.Q, x, x, d, d, len(part))
						}
						t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { requireSameBits(t, got, want) })
					}
				})
			}
		}
		for rw := 1; rw <= 9; rw++ {
			for cw := 1; cw <= 9; cw++ {
				t.Run(fmt.Sprintf("%s/%dx%d", body.name, rw, cw), func(t *testing.T) {
					defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
					stride := rw + cw
					for _, k := range allTileSizes {
						points := hostileRows(rng, k, stride)
						for _, colsFirst := range []bool{false, true} {
							got, want, tile := guardedState(t, Full, rw, cw), NewBlockResult(rw, cw), guarded(t, k*stride)
							xr, xc := tile, tile[rw:]
							if colsFirst {
								xr, xc = tile[cw:], tile
							}
							for i, p := range points {
								copy(xr[i*stride:][:rw], p[:rw])
								copy(xc[i*stride:][:cw], p[rw:])
								plainBlockUpdate(want, p[:rw], p[rw:])
							}
							got.N += float64(k)
							body.fn(Full, got.L, got.Min, got.Max, got.Q, xr, xc, cw, stride, k)
							t.Run(fmt.Sprintf("k=%d/colsfirst=%v", k, colsFirst), func(t *testing.T) {
								requireSameBits(t, got, blockAsNLQ(want))
							})
						}
					}
				})
			}
		}
	}
}
