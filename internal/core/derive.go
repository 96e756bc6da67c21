package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Covariance returns V = Q/n − L·Lᵀ/n² (d×d), the variance-covariance
// matrix derived purely from the summaries (§3.2 of the paper).
func (s *NLQ) Covariance() (*matrix.Dense, error) {
	if s.N < 1 {
		return nil, errors.New("core: covariance requires n ≥ 1")
	}
	if s.Type == Diagonal {
		return nil, errors.New("core: covariance requires a triangular or full Q")
	}
	v := matrix.New(s.D, s.D)
	n := s.N
	for a := 0; a < s.D; a++ {
		for b := 0; b < s.D; b++ {
			v.Set(a, b, s.QAt(a, b)/n-s.L[a]*s.L[b]/(n*n))
		}
	}
	return v, nil
}

// Correlation returns the d×d Pearson correlation matrix
// ρab = (n·Qab − La·Lb) / (√(n·Qaa − La²)·√(n·Qbb − Lb²)),
// expressed only in terms of n, L and Q — X is not needed.
func (s *NLQ) Correlation() (*matrix.Dense, error) {
	if s.N < 2 {
		return nil, errors.New("core: correlation requires n ≥ 2")
	}
	if s.Type == Diagonal {
		return nil, errors.New("core: correlation requires a triangular or full Q")
	}
	n := s.N
	sd := make([]float64, s.D)
	for a := 0; a < s.D; a++ {
		v := n*s.QAt(a, a) - s.L[a]*s.L[a]
		if v < 0 {
			v = 0 // numerical guard
		}
		sd[a] = math.Sqrt(v)
	}
	rho := matrix.New(s.D, s.D)
	for a := 0; a < s.D; a++ {
		for b := 0; b < s.D; b++ {
			den := sd[a] * sd[b]
			if den == 0 {
				if a == b {
					rho.Set(a, b, 1)
				}
				continue // zero-variance dimension: undefined, report 0
			}
			r := (n*s.QAt(a, b) - s.L[a]*s.L[b]) / den
			// Clamp the ratio as well as the variances: with
			// near-collinear dimensions, cancellation in numerator and
			// denominator can leave |ρ| a few ulps past 1, which poisons
			// consumers computing √(1−ρ²).
			if r > 1 {
				r = 1
			} else if r < -1 {
				r = -1
			}
			rho.Set(a, b, r)
		}
	}
	return rho, nil
}

// Variances returns the per-dimension population variances
// Qaa/n − (La/n)²; valid for any matrix type including Diagonal —
// this is the Rⱼ computation clustering uses.
func (s *NLQ) Variances() ([]float64, error) {
	if s.N < 1 {
		return nil, errors.New("core: variances require n ≥ 1")
	}
	out := make([]float64, s.D)
	n := s.N
	for a := 0; a < s.D; a++ {
		v := s.QAt(a, a)/n - (s.L[a]/n)*(s.L[a]/n)
		if v < 0 {
			v = 0
		}
		out[a] = v
	}
	return out, nil
}

// BlockPlan describes the paper's Table 6 strategy for d > MaxD: Q is
// partitioned into row/column range blocks, each small enough for one
// UDF state, and all block calls are submitted over one synchronized
// table scan. The number of calls is the count the paper reports
// ((d/64)² full blocks arranged over the lower triangle plus the
// diagonal blocks).
type BlockPlan struct {
	D      int
	BlockD int
	Blocks []Block
}

// Block is one (row range, column range) submatrix assignment.
type Block struct {
	RowLo, RowHi int // dimensions [RowLo, RowHi)
	ColLo, ColHi int
}

// PlanBlocks partitions a d-dimensional NLQ computation into blocks of
// at most blockD dimensions. Diagonal blocks compute their own
// triangle; off-diagonal blocks (row range > col range) compute full
// cross-products. Only lower-triangle blocks are emitted, since Q is
// symmetric.
func PlanBlocks(d, blockD int) (*BlockPlan, error) {
	if d < 1 || blockD < 1 {
		return nil, fmt.Errorf("core: invalid block plan d=%d blockD=%d", d, blockD)
	}
	p := &BlockPlan{D: d, BlockD: blockD}
	nb := (d + blockD - 1) / blockD
	for br := 0; br < nb; br++ {
		rlo, rhi := br*blockD, min((br+1)*blockD, d)
		for bc := 0; bc <= br; bc++ {
			clo, chi := bc*blockD, min((bc+1)*blockD, d)
			p.Blocks = append(p.Blocks, Block{RowLo: rlo, RowHi: rhi, ColLo: clo, ColHi: chi})
		}
	}
	return p, nil
}

// Calls returns the number of UDF calls the plan issues, the quantity
// Table 6 reports.
func (p *BlockPlan) Calls() int { return len(p.Blocks) }

// Assemble stitches per-block results into one full-matrix NLQ. Each
// entry of parts corresponds positionally to p.Blocks and must carry
// the linear sums for its row range (diagonal blocks also carry the
// column range implicitly, row==col).
func (p *BlockPlan) Assemble(parts []*BlockResult) (*NLQ, error) {
	if len(parts) != len(p.Blocks) {
		return nil, fmt.Errorf("core: plan has %d blocks, got %d results", len(p.Blocks), len(parts))
	}
	out, err := NewNLQ(p.D, Full)
	if err != nil {
		return nil, err
	}
	for i, blk := range p.Blocks {
		r := parts[i]
		if r == nil {
			return nil, fmt.Errorf("core: missing result for block %d", i)
		}
		rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
		if blk.RowLo < 0 || blk.ColLo < 0 || rw < 1 || cw < 1 || blk.RowHi > p.D || blk.ColHi > p.D {
			return nil, fmt.Errorf("core: block %d %+v does not fit d=%d", i, blk, p.D)
		}
		if len(r.Q) != rw*cw {
			return nil, fmt.Errorf("core: block %d result has %d Q entries, want %d", i, len(r.Q), rw*cw)
		}
		if i == 0 {
			out.N = r.N
		} else if r.N != out.N {
			return nil, fmt.Errorf("core: block %d saw n=%g, others saw n=%g", i, r.N, out.N)
		}
		// Linear sums: diagonal blocks carry their row range's L.
		if blk.RowLo == blk.ColLo {
			if len(r.L) != rw || len(r.Min) != rw || len(r.Max) != rw {
				return nil, fmt.Errorf("core: block %d result has %d L, %d min and %d max entries, want %d", i, len(r.L), len(r.Min), len(r.Max), rw)
			}
			copy(out.L[blk.RowLo:blk.RowHi], r.L)
			copy(out.Min[blk.RowLo:blk.RowHi], r.Min)
			copy(out.Max[blk.RowLo:blk.RowHi], r.Max)
		}
		for a := 0; a < rw; a++ {
			for b := 0; b < cw; b++ {
				ga, gb := blk.RowLo+a, blk.ColLo+b
				v := r.Q[a*cw+b]
				if blk.RowLo == blk.ColLo && gb > ga {
					continue // diagonal blocks fill only their triangle
				}
				out.Q[ga*p.D+gb] = v
				out.Q[gb*p.D+ga] = v
			}
		}
	}
	return out, nil
}

// BlockResult is the packed result of one blocked-UDF call: n, the row
// range's L/min/max (diagonal blocks), and the block's Q slab.
type BlockResult struct {
	N   float64
	L   []float64
	Min []float64
	Max []float64
	Q   []float64 // row-major (rowHi-rowLo)×(colHi-colLo)
}

// NewBlockResult returns the empty result of a block rw rows by cw
// columns wide.
func NewBlockResult(rw, cw int) *BlockResult {
	res := &BlockResult{
		Q:   make([]float64, rw*cw),
		L:   make([]float64, rw),
		Min: make([]float64, rw),
		Max: make([]float64, rw),
	}
	for i := range res.Min {
		res.Min[i] = math.Inf(1)
		res.Max[i] = math.Inf(-1)
	}
	return res
}

// Update folds the k points stored row-major in tile, len(tile)/k
// values apart, through the kernel in one call: each point's first rw
// values are its row range's, and its column range's are the same
// values (a diagonal block, len(tile)/k == rw) or the cw after them.
// n ← n+k, L/min/max over the row values, Q ← Q + Σ xr·xcᵀ.
func (r *BlockResult) Update(tile []float64, k int) {
	rw, w := len(r.L), len(tile)/k
	xc := tile
	if w != rw {
		xc = tile[rw:]
	}
	r.N += float64(k)
	update(Full, r.L, r.Min, r.Max, r.Q, tile, xc, len(r.Q)/rw, w, k)
}

// ComputeBlock accumulates one block directly from a vector stream with
// the plain double loop; it is the reference implementation the blocked
// UDF is tested against.
func ComputeBlock(blk Block, scan func(fn func(x []float64) error) error) (*BlockResult, error) {
	rw, cw := blk.RowHi-blk.RowLo, blk.ColHi-blk.ColLo
	res := NewBlockResult(rw, cw)
	err := scan(func(x []float64) error {
		if len(x) < blk.RowHi || len(x) < blk.ColHi {
			return fmt.Errorf("core: point of %d dims too short for block rows [%d,%d) cols [%d,%d)",
				len(x), blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi)
		}
		res.N++
		for a := 0; a < rw; a++ {
			v := x[blk.RowLo+a]
			res.L[a] += v
			if v < res.Min[a] {
				res.Min[a] = v
			}
			if v > res.Max[a] {
				res.Max[a] = v
			}
			row := res.Q[a*cw:]
			for b := 0; b < cw; b++ {
				row[b] += float64(x[blk.ColLo+b] * v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
