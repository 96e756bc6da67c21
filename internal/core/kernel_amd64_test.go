package core

func init() {
	if !useAVX2 {
		return
	}
	kernelBodies = append(kernelBodies, kernelBody{"avx2", func(mt MatrixType, l, mn, mx, q, xr, xc []float64, cw, stride, k int) {
		updateAVX2(&l[0], &mn[0], &mx[0], &q[0], &xr[0], &xc[0], len(l), cw, stride, k, int(mt))
	}})
}
