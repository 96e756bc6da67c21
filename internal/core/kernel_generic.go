//go:build !amd64

package core

// update is the per-point kernel (see kernel.go); only amd64 has a
// second body.
func update(mt MatrixType, l, mn, mx, q, xr, xc []float64) {
	updateGo(mt, l, mn, mx, q, xr, xc)
}
