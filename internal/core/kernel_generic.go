//go:build !amd64

package core

// update is the tile kernel (see kernel.go); only amd64 has a second
// body.
func update(mt MatrixType, l, mn, mx, q, xr, xc []float64, cw, stride, k int) {
	updateGo(mt, l, mn, mx, q, xr, xc, cw, stride, k)
}
