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

// TestKernelStaysInBounds runs every kernel body with the point, L,
// min, max and Q each ending at a guard page, so the last row tile and
// every tail are flush against it: a load or store past len faults. The
// shapes put each tile position and remainder of every mode last.
func TestKernelStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(25))
	for _, body := range kernelBodies {
		for d := 1; d <= 20; d++ {
			for _, mt := range matrixTypes {
				got, want, x := guardedState(t, mt, d, d), MustNLQ(d, mt), guarded(t, d)
				for _, row := range hostileRows(rng, 3, d) {
					copy(x, row)
					got.N++
					body.fn(mt, got.L, got.Min, got.Max, got.Q, x, x)
					plainUpdate(want, row)
				}
				t.Run(body.name, func(t *testing.T) { requireSameBits(t, got, want) })
			}
		}
		for rw := 1; rw <= 9; rw++ {
			for cw := 1; cw <= 9; cw++ {
				got, want := guardedState(t, Full, rw, cw), NewBlockResult(rw, cw)
				xr, xc := guarded(t, rw), guarded(t, cw)
				for _, p := range hostileRows(rng, 3, rw+cw) {
					copy(xr, p[:rw])
					copy(xc, p[rw:])
					got.N++
					body.fn(Full, got.L, got.Min, got.Max, got.Q, xr, xc)
					plainBlockUpdate(want, xr, xc)
				}
				t.Run(fmt.Sprintf("%s/%dx%d", body.name, rw, cw), func(t *testing.T) {
					requireSameBits(t, got, blockAsNLQ(want))
				})
			}
		}
	}
}
