package core

// useAVX2 is decided once, from CPUID and XGETBV: the CPU has AVX2 and
// the OS saves the YMM registers.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func updateAVX2(l, mn, mx, q, xr, xc *float64, rw, cw, mode int)

// update is the per-point kernel (see kernel.go). The reslicing is the
// bounds check the assembly relies on.
func update(mt MatrixType, l, mn, mx, q, xr, xc []float64) {
	rw, cw := len(xr), len(xc)
	if !useAVX2 || rw == 0 || cw == 0 {
		updateGo(mt, l, mn, mx, q, xr, xc)
		return
	}
	l, mn, mx, q = l[:rw], mn[:rw], mx[:rw], q[:rw*cw]
	updateAVX2(&l[0], &mn[0], &mx[0], &q[0], &xr[0], &xc[0], rw, cw, int(mt))
}
