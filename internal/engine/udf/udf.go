// Package udf is the engine's User-Defined Function framework,
// modeled on the Teradata UDF API the paper targets:
//
//   - Scalar UDFs take simple-typed parameters and return one value per
//     input row. They cannot keep state between rows (only "stack"
//     locals), cannot perform I/O, and cannot call other UDFs.
//   - Aggregate UDFs run in four phases — (1) initialization, where
//     state is allocated in a bounded heap segment; (2) row
//     aggregation, executed once per row; (3) partial-result merge,
//     where per-partition subtotals are combined by a master; and
//     (4) returning results, where state is packed into one value of a
//     simple type (arrays cannot be returned, so vectors and matrices
//     travel as packed strings). An aggregate over numbers may also
//     have a float body (FloatAggregate), which the executor calls
//     with whole tiles of rows unboxed.
//
// The heap segment is capped at 64 KB (SegmentSize), the limit the
// paper reports for Teradata on Unix/Windows; it is what forces the
// MAX_d bound and the blocked computation for high dimensionality.
package udf

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine/sqltypes"
)

// SegmentSize is the maximum heap an aggregate UDF state may allocate,
// matching the paper's "one 64 kb segment" Teradata constraint.
const SegmentSize = 64 * 1024

// Heap is the accounting allocator handed to an aggregate UDF's Init
// phase. It does not own memory — Go's allocator does — it enforces
// the DBMS's per-state budget so UDF authors hit the same wall they
// would on the real system.
type Heap struct {
	limit int
	used  int
}

// NewHeap returns a heap with the given byte limit (SegmentSize for
// engine-managed states).
func NewHeap(limit int) *Heap { return &Heap{limit: limit} }

// Alloc reserves n bytes, failing when the segment would overflow.
func (h *Heap) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("udf: negative allocation %d", n)
	}
	if h.used+n > h.limit {
		return fmt.Errorf("udf: heap segment exhausted: %d + %d > %d bytes", h.used, n, h.limit)
	}
	h.used += n
	return nil
}

// AllocFloats reserves and returns a float64 slice, 8 bytes per entry.
func (h *Heap) AllocFloats(n int) ([]float64, error) {
	if err := h.Alloc(8 * n); err != nil {
		return nil, err
	}
	return make([]float64, n), nil
}

// Used reports bytes allocated so far.
func (h *Heap) Used() int { return h.used }

// Limit reports the segment size.
func (h *Heap) Limit() int { return h.limit }

// State is an aggregate UDF's per-group working storage.
type State any

// Aggregate is an aggregate UDF. One Aggregate value serves all queries
// (it must be stateless); per-group state is created by Init.
type Aggregate interface {
	// Name returns the SQL-callable function name.
	Name() string
	// CheckArgs validates the call-site argument count.
	CheckArgs(nargs int) error
	// Init allocates fresh state in the provided heap segment (phase 1).
	Init(h *Heap) (State, error)
	// Accumulate folds one row's argument values into the state
	// (phase 2). It is called once per qualifying row.
	Accumulate(s State, args []sqltypes.Value) error
	// Merge folds src into dst (phase 3); src must not be used after.
	Merge(dst, src State) error
	// Finalize packs the state into a single return value (phase 4).
	Finalize(s State) (sqltypes.Value, error)
}

// FloatAggregate is an Aggregate whose row aggregation also has a float
// body, the aggregate counterpart of a scalar function's Float: the
// executor calls AccumulateFloats for a tile of rows whose arguments
// after the first LeadArgs() are all numbers — decoded from the row log
// or gathered out of column segment blocks alike — and Accumulate, which
// owns NULLs, conversions and their errors, for every other row. A state
// sees its rows in arrival order whichever of the two carries them, and
// both must fold a row identically.
type FloatAggregate interface {
	Aggregate
	// LeadArgs is how many leading arguments (a header such as nlq_list's
	// d and mtype) the float body takes boxed; the executor uses the body
	// only where they are literals, boxed once per plan.
	LeadArgs() int
	// AccumulateFloats folds k ≥ 1 rows (phase 2) exactly as k one-row
	// calls would fold them, in order: lead is the leading arguments,
	// tile the rest as floats, row-major, len(tile)/k per row — both the
	// caller's, valid for the call, not to be retained or written.
	AccumulateFloats(s State, lead []sqltypes.Value, tile []float64, k int) error
}

// Registry holds aggregate UDFs plus the standard SQL aggregates, which
// the executor treats uniformly.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Aggregate
}

// NewRegistry returns a registry pre-loaded with the standard SQL
// aggregates (sum, count, avg, min, max).
func NewRegistry() *Registry {
	r := &Registry{m: make(map[string]Aggregate)}
	for _, a := range standardAggregates() {
		r.m[a.Name()] = a
	}
	return r
}

// Register installs an aggregate UDF; names are case-insensitive and
// re-registration replaces.
func (r *Registry) Register(a Aggregate) error {
	name := strings.ToLower(a.Name())
	if name == "" {
		return fmt.Errorf("udf: aggregate with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = a
	return nil
}

// Lookup finds an aggregate by name.
func (r *Registry) Lookup(name string) (Aggregate, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.m[strings.ToLower(name)]
	return a, ok
}

// Names returns the registered aggregate names (for IsAggregate sets).
func (r *Registry) Names() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.m))
	for k := range r.m {
		out[k] = true
	}
	return out
}

// PackFloats renders a float vector as the pipe-separated string an
// aggregate UDF returns (UDFs cannot return arrays). Full precision is
// preserved.
func PackFloats(v []float64) string {
	var b strings.Builder
	for i, f := range v {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatFloat(f, 'g', 17, 64))
	}
	return b.String()
}

// UnpackFloats parses a pipe-separated float vector.
func UnpackFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("udf: bad packed float %q: %w", p, err)
		}
		out[i] = f
	}
	return out, nil
}
