package core

// useAVX2 is decided once, from CPUID and XGETBV: the CPU has AVX2 and
// the OS saves the YMM registers.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func updateAVX2(l, mn, mx, q, xr, xc *float64, rw, cw, stride, k, mode int)

// update is the tile kernel (see kernel.go). The reslicing is the
// bounds check the assembly relies on.
func update(mt MatrixType, l, mn, mx, q, xr, xc []float64, cw, stride, k int) {
	rw := len(l)
	if !useAVX2 || rw == 0 || cw == 0 || k == 0 {
		updateGo(mt, l, mn, mx, q, xr, xc, cw, stride, k)
		return
	}
	mn, mx, q = mn[:rw], mx[:rw], q[:rw*cw]
	xr, xc = xr[:(k-1)*stride+rw], xc[:(k-1)*stride+cw]
	updateAVX2(&l[0], &mn[0], &mx[0], &q[0], &xr[0], &xc[0], rw, cw, stride, k, int(mt))
}
