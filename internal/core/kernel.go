package core

// The tile kernel. One call folds a tile of k ≤ TileRows points, stored
// row-major stride float64s apart, in row order; each point does
//
//	l += xr;  mn = min(mn, xr);  mx = max(mx, xr);  q += xr·xcᵀ restricted to mt
//
// and every path that folds points — NLQ.Update one point per call,
// NLQ.UpdateRows, NLQ.UpdateBlock (its tiles gathered by FillTile) and
// BlockResult.Update a tile per call — calls update, which has exactly
// two bodies: the AVX2 assembly in kernel_amd64.s and updateGo below
// (other architectures, and amd64 hosts without AVX2). A tile changes only how many points one call
// sees: the assembly keeps a block of Q in registers while the tile's
// points pass through it, so each slot of Q is loaded and stored once
// per tile instead of once per point.
//
// The rule both bodies keep, and the only reason row == columnar ==
// cluster == incremental hold bit for bit: every slot receives, in row
// order, one multiply rounded to float64 and then one add per point —
// never a fused multiply-add. Which slot is touched next is free (the
// Go body tiles four rows of Q, the assembly puts slot j in lane j and
// walks blocks of slots); the per-slot sequence is not. The products
// are written float64(x*y) because the Go spec lets a compiler fuse
// x*y + z across the bare expression (arm64, ppc64le, s390x, riscv64
// and GOAMD64=v3 do) but never across an explicit conversion.
//
// On x86 a NaN result carries the payload of the first NaN source, so
// operand order shows in the bits. The adds agree in both bodies
// (accumulator first in l += v, product first in q += p, as the
// compiler emits them; kernel_amd64.s lists the assembly's). Which
// operand of a product comes first Go source cannot say — the compiler
// picks per call site — so a point holding two NaNs of different
// payloads may leave either payload in Q; the assembly always keeps the
// column value's.

// updateGo is the portable body of update: the tile's points one at a
// time, in row order. q is len(l)×cw row-major; point i's row values are
// xr[i*stride:][:len(l)] and its column values xc[i*stride:][:cw]. For
// Diagonal and Triangular xc is xr and cw is len(l).
func updateGo(mt MatrixType, l, mn, mx, q, xr, xc []float64, cw, stride, k int) {
	rw := len(l)
	for i := 0; i < k; i++ {
		o := i * stride
		updatePoint(mt, l, mn, mx, q, xr[o:o+rw], xc[o:o+cw])
	}
}

// updatePoint folds one point.
func updatePoint(mt MatrixType, l, mn, mx, q, xr, xc []float64) {
	l, mn, mx = l[:len(xr)], mn[:len(xr)], mx[:len(xr)]
	for a, v := range xr {
		l[a] += v
		if v < mn[a] {
			mn[a] = v
		}
		if v > mx[a] {
			mx[a] = v
		}
	}
	switch mt {
	case Diagonal:
		for a, v := range xr {
			q[a*len(xr)+a] += float64(v * v)
		}
	case Triangular:
		addOuterLower(q, xr)
	case Full:
		addOuter(q, xr, xc)
	}
}

// addRows4 adds x0·xs … x3·xs into four rows at least as long as xs.
// Four accumulator rows advance together so each xs[b] is loaded once
// for four multiply-adds; reslicing to a common length lets the
// compiler drop the bounds checks.
func addRows4(r0, r1, r2, r3, xs []float64, x0, x1, x2, x3 float64) {
	r0, r1, r2, r3 = r0[:len(xs)], r1[:len(xs)], r2[:len(xs)], r3[:len(xs)]
	for b, xb := range xs {
		r0[b] += float64(xb * x0)
		r1[b] += float64(xb * x1)
		r2[b] += float64(xb * x2)
		r3[b] += float64(xb * x3)
	}
}

// addOuter adds the outer product xr·xcᵀ into the len(xr)×len(xc)
// row-major q: the Full update (xr = xc) and the rectangular update of
// the blocked high-d strategy.
func addOuter(q, xr, xc []float64) {
	w := len(xc)
	q = q[:len(xr)*w]
	a := 0
	for ; a+4 <= len(xr); a += 4 {
		t := q[a*w : (a+4)*w]
		addRows4(t[:w], t[w:2*w], t[2*w:3*w], t[3*w:], xc, xr[a], xr[a+1], xr[a+2], xr[a+3])
	}
	for ; a < len(xr); a++ {
		va, row := xr[a], q[a*w:(a+1)*w]
		for b, xb := range xc {
			row[b] += float64(xb * va)
		}
	}
}

// addOuterLower adds the lower triangle (col ≤ row) of x·xᵀ into the
// d×d row-major q. A tile of four rows a..a+3 shares columns 0..a-1;
// the 4×4 block on the diagonal contributes its own lower triangle,
// written out explicitly.
func addOuterLower(q, x []float64) {
	d := len(x)
	q = q[:d*d]
	a := 0
	for ; a+4 <= d; a += 4 {
		x0, x1, x2, x3 := x[a], x[a+1], x[a+2], x[a+3]
		r0, r1, r2, r3 := q[a*d:], q[(a+1)*d:], q[(a+2)*d:], q[(a+3)*d:]
		addRows4(r0, r1, r2, r3, x[:a], x0, x1, x2, x3)
		t0, t1, t2, t3 := r0[a:a+1], r1[a:a+2], r2[a:a+3], r3[a:a+4]
		t0[0] += float64(x0 * x0)
		t1[0] += float64(x0 * x1)
		t1[1] += float64(x1 * x1)
		t2[0] += float64(x0 * x2)
		t2[1] += float64(x1 * x2)
		t2[2] += float64(x2 * x2)
		t3[0] += float64(x0 * x3)
		t3[1] += float64(x1 * x3)
		t3[2] += float64(x2 * x3)
		t3[3] += float64(x3 * x3)
	}
	for ; a < d; a++ {
		va, row := x[a], q[a*d:a*d+a+1]
		for b, xb := range x[:a+1] {
			row[b] += float64(xb * va)
		}
	}
}
