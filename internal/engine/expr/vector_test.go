package expr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// compileBoth compiles src as both a scalar evaluator and a vector
// program over three DOUBLE columns a, b, c (and a non-vectorizable
// varchar column s at ordinal 3).
func compileBoth(t *testing.T, src string) (Evaluator, *VectorProgram) {
	t.Helper()
	ast, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ev, err := Compile(ast, vecTestResolve, NewRegistry())
	if err != nil {
		t.Fatalf("scalar compile %q: %v", src, err)
	}
	p, err := CompileVector(ast, vecTestResolve, func(ord int) bool { return ord < 3 })
	if err != nil {
		t.Fatalf("vector compile %q: %v", src, err)
	}
	return ev, p
}

func vecTestResolve(table, col string) (int, error) {
	switch strings.ToLower(col) {
	case "a":
		return 0, nil
	case "b":
		return 1, nil
	case "c":
		return 2, nil
	case "s":
		return 3, nil
	}
	return 0, fmt.Errorf("no column %q", col)
}

// testBlock is a random block over columns a, b, c with NULL lanes and
// the float edges on every operand: zeros of both signs, ±Inf, NaN and
// equal lanes.
type testBlock struct {
	rows  int
	cols  [][]float64
	valid [][]bool
}

func randBlock(rng *rand.Rand, rows int) *testBlock {
	b := &testBlock{rows: rows, cols: make([][]float64, 3), valid: make([][]bool, 3)}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for c := range b.cols {
		b.cols[c] = make([]float64, rows)
		b.valid[c] = make([]bool, rows)
		for r := 0; r < rows; r++ {
			b.valid[c][r] = rng.Float64() < 0.8
			b.cols[c][r] = rng.Float64()*100 - 50
			if rng.Float64() < 0.15 {
				b.cols[c][r] = specials[rng.Intn(len(specials))]
			}
		}
	}
	// Force some equal lanes so = / <> see both outcomes.
	for r := 0; r < rows; r++ {
		if rng.Float64() < 0.15 {
			b.cols[1][r] = b.cols[0][r]
		}
	}
	return b
}

// randMask is nil (every lane), a random mask, or a random mask with
// every lane that divides by a non-NULL zero b masked out.
func randMask(rng *rand.Rand, b *testBlock) []bool {
	mode := rng.Intn(3)
	if mode == 0 {
		return nil
	}
	mask := make([]bool, b.rows)
	for r := range mask {
		mask[r] = rng.Intn(2) == 0 && !(mode == 2 && b.valid[1][r] && b.cols[1][r] == 0)
	}
	return mask
}

// scalarRow materializes lane r as the row the tree walker sees.
func (b *testBlock) scalarRow(r int) sqltypes.Row {
	row := make(sqltypes.Row, 3)
	for c := 0; c < 3; c++ {
		if b.valid[c][r] {
			row[c] = sqltypes.NewDouble(b.cols[c][r])
		} else {
			row[c] = sqltypes.Null
		}
	}
	return row
}

// slice projects the block onto a program's column slots.
func (b *testBlock) slice(p *VectorProgram) (cols [][]float64, valid [][]bool) {
	for _, ord := range p.Cols() {
		cols = append(cols, b.cols[ord])
		valid = append(valid, b.valid[ord])
	}
	return cols, valid
}

// scalarLanes evaluates the tree walker on every masked-in lane (nil
// mask: every lane), returning the results and whether any lane raised.
func scalarLanes(t *testing.T, src string, ev Evaluator, b *testBlock, mask []bool) ([]sqltypes.Value, bool) {
	t.Helper()
	out := make([]sqltypes.Value, b.rows)
	for r := range out {
		if mask != nil && !mask[r] {
			continue
		}
		v, err := ev.Eval(b.scalarRow(r))
		if err != nil {
			if !errors.Is(err, ErrDivisionByZero) {
				t.Fatalf("%q lane %d: scalar err %v", src, r, err)
			}
			return nil, true
		}
		out[r] = v
	}
	return out, false
}

// vectorErr checks a program's error against the scalar lanes': the
// block fails with ErrDivisionByZero exactly when a masked-in lane does.
func vectorErr(t *testing.T, src string, verr error, scalarErr bool) bool {
	t.Helper()
	switch {
	case scalarErr && !errors.Is(verr, ErrDivisionByZero):
		t.Fatalf("%q: a masked-in lane divides by zero, vector err %v", src, verr)
	case !scalarErr && verr != nil:
		t.Fatalf("%q: vector err %v, scalar clean on every masked-in lane", src, verr)
	}
	return scalarErr
}

// checkNumAgainstScalar compares a numeric program with the tree
// walker on the masked-in lanes and reports whether they raised.
func checkNumAgainstScalar(t *testing.T, src string, ev Evaluator, p *VectorProgram, b *testBlock, mask []bool) bool {
	t.Helper()
	cols, valid := b.slice(p)
	vals, ok, verr := p.EvalNum(cols, valid, b.rows, mask)
	want, serr := scalarLanes(t, src, ev, b, mask)
	if vectorErr(t, src, verr, serr) {
		return true
	}
	for r, sv := range want {
		if mask != nil && !mask[r] {
			continue
		}
		if sv.IsNull() != !ok[r] {
			t.Fatalf("%q lane %d: scalar null=%v, vector valid=%v", src, r, sv.IsNull(), ok[r])
		}
		if !sv.IsNull() {
			sf, _ := sv.Float()
			if math.Float64bits(sf) != math.Float64bits(vals[r]) {
				t.Fatalf("%q lane %d: scalar %v, vector %v", src, r, sf, vals[r])
			}
		}
	}
	if n := p.Ops(); b.rows > 0 && n <= 0 {
		t.Fatalf("%q: vector ops counter did not advance", src)
	}
	return false
}

// checkBoolAgainstScalar is checkNumAgainstScalar for predicates.
func checkBoolAgainstScalar(t *testing.T, src string, ev Evaluator, p *VectorProgram, b *testBlock, mask []bool) bool {
	t.Helper()
	cols, valid := b.slice(p)
	truth, verr := p.EvalBool(cols, valid, b.rows, mask)
	want, serr := scalarLanes(t, src, ev, b, mask)
	if vectorErr(t, src, verr, serr) {
		return true
	}
	for r, sv := range want {
		if mask != nil && !mask[r] {
			continue
		}
		w := vFalse
		switch {
		case sv.IsNull():
			w = vNull
		case sv.Bool():
			w = vTrue
		}
		if truth[r] != w {
			t.Fatalf("%q lane %d: scalar %v, vector %v (row %v)", src, r, w, truth[r], b.scalarRow(r))
		}
	}
	return false
}

// TestVectorMatchesScalarRandomized: over blocks holding ±0, ±Inf, NaN
// and NULL on every operand, under no mask, random masks, and random
// masks that hide every zero divisor, each program's masked-in lanes
// equal the tree walker's row by row, and the block raises
// ErrDivisionByZero exactly when a masked-in lane does.
func TestVectorMatchesScalarRandomized(t *testing.T) {
	numeric := []string{
		"a",
		"-a",
		"-b",
		"a + b",
		"a - b",
		"a * b",
		"a * b + 2",
		"a / 2.5",
		"a / b",
		"a % 3.5",
		"a % b",
		"(a + b) * (a - b)",
		"-(a * b) + c",
		"2.0 * a + 10.0 / 4.0",
		"c - a / b",
	}
	boolean := []string{
		"a > b",
		"a = b",
		"a <> b",
		"a < b",
		"a <= b",
		"a >= b",
		"a <= b OR b IS NULL",
		"NOT (a < 0)",
		"NOT (a = b)",
		"a IS NOT NULL AND b > 1",
		"a > 0 AND a < 100",
		"a + 1 > b * 2",
		"c IS NULL",
		"c IS NOT NULL",
		"a > 0 OR b > 0",
		"a > 0 OR c > 0",
		"a > 0 AND b < 0 OR c = 0",
		"NOT (a > b OR c IS NULL)",
		"NOT (a > b AND c IS NOT NULL)",
		"a / b > 1",
		"a % b <> c",
		"b <> 0 AND a / b > 1",
		"b = 0 OR a % b < 2",
	}
	// raised counts blocks that divided by zero on a masked-in lane;
	// hidden, clean blocks whose mask hid a non-NULL zero divisor.
	raised, hidden := 0, 0
	tally := func(src string, b *testBlock, mask []bool, err bool) {
		if err {
			raised++
			return
		}
		if !strings.Contains(src, "/ b") && !strings.Contains(src, "% b") {
			return
		}
		for r := range mask {
			if !mask[r] && b.valid[1][r] && b.cols[1][r] == 0 {
				hidden++
				return
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		b := randBlock(rng, rng.Intn(200))
		for _, src := range numeric {
			ev, p := compileBoth(t, src)
			if p.IsBool() {
				t.Fatalf("%q compiled as boolean", src)
			}
			mask := randMask(rng, b)
			tally(src, b, mask, checkNumAgainstScalar(t, src, ev, p, b, mask))
		}
		for _, src := range boolean {
			ev, p := compileBoth(t, src)
			if !p.IsBool() {
				t.Fatalf("%q compiled as numeric", src)
			}
			mask := randMask(rng, b)
			tally(src, b, mask, checkBoolAgainstScalar(t, src, ev, p, b, mask))
		}
	}
	if raised == 0 || hidden == 0 {
		t.Fatalf("%d blocks raised on a masked-in zero divisor and %d hid one: both must occur", raised, hidden)
	}
	t.Logf("%d blocks raised, %d hid a zero divisor behind the mask", raised, hidden)
}

func TestVectorDivisionByZero(t *testing.T) {
	mkBlock := func(a []float64, valid []bool) *testBlock {
		b := &testBlock{rows: len(a), cols: make([][]float64, 3), valid: make([][]bool, 3)}
		for c := range b.cols {
			b.cols[c] = make([]float64, len(a))
			b.valid[c] = make([]bool, len(a))
		}
		copy(b.cols[0], a)
		copy(b.valid[0], valid)
		return b
	}

	for _, src := range []string{"10.0 / a", "7.5 % a"} {
		ev, p := compileBoth(t, src)
		// A valid zero lane raises the typed error, same as the scalar path.
		b := mkBlock([]float64{1, 0, 3}, []bool{true, true, true})
		cols, valid := b.slice(p)
		if _, _, err := p.EvalNum(cols, valid, b.rows, nil); !errors.Is(err, ErrDivisionByZero) {
			t.Fatalf("%q: err = %v, want ErrDivisionByZero", src, err)
		}
		if _, err := ev.Eval(b.scalarRow(1)); !errors.Is(err, ErrDivisionByZero) {
			t.Fatalf("%q scalar: err = %v, want ErrDivisionByZero", src, err)
		}
		// A NULL zero lane does not: the row path returns NULL before the
		// arithmetic ever runs.
		b = mkBlock([]float64{1, 0, 3}, []bool{true, false, true})
		cols, valid = b.slice(p)
		if _, _, err := p.EvalNum(cols, valid, b.rows, nil); err != nil {
			t.Fatalf("%q with NULL zero lane: %v", src, err)
		}
		// Neither does a masked-out zero lane.
		b = mkBlock([]float64{1, 0, 3}, []bool{true, true, true})
		cols, valid = b.slice(p)
		if _, _, err := p.EvalNum(cols, valid, b.rows, []bool{true, false, true}); err != nil {
			t.Fatalf("%q with masked zero lane: %v", src, err)
		}
	}

	// Short-circuit masking: the guard keeps the division off the zero
	// lanes, exactly like the scalar evaluator's AND short-circuit.
	ev, p := compileBoth(t, "a <> 0 AND 10.0 / a > 2")
	b := mkBlock([]float64{4, 0, 100, 0}, []bool{true, true, true, true})
	cols, valid := b.slice(p)
	truth, err := p.EvalBool(cols, valid, b.rows, nil)
	if err != nil {
		t.Fatalf("guarded division errored: %v", err)
	}
	want := []int8{vTrue, vFalse, vFalse, vFalse}
	for r := range want {
		if truth[r] != want[r] {
			t.Fatalf("lane %d: truth %v, want %v", r, truth[r], want[r])
		}
		sv, serr := ev.Eval(b.scalarRow(r))
		if serr != nil {
			t.Fatalf("scalar lane %d errored: %v", r, serr)
		}
		got := vFalse
		if sv.IsNull() {
			got = vNull
		} else if sv.Bool() {
			got = vTrue
		}
		if got != truth[r] {
			t.Fatalf("lane %d: scalar %v, vector %v", r, got, truth[r])
		}
	}
}

func TestVectorUnsupportedShapes(t *testing.T) {
	unsupported := []string{
		"power(a, 2)",                       // function call
		"CASE WHEN a > 0 THEN 1 ELSE 0 END", // CASE
		"a IN (1, 2)",                       // IN list
		"a BETWEEN 1 AND 2",                 // BETWEEN
		"s || 'x'",                          // string concat
		"'lit'",                             // string literal
		"s",                                 // non-vectorizable column
		"NOT a",                             // NOT over a numeric operand
		"-(a > b)",                          // negation of a boolean
		"(a > b) + 1",                       // arithmetic over a boolean
		"a AND b",                           // logic over numeric operands
		"a > s",                             // comparison with a varchar column
		"(a > b) IS NULL",                   // IS NULL over a boolean
	}
	for _, src := range unsupported {
		ast, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		_, err = CompileVector(ast, vecTestResolve, func(ord int) bool { return ord < 3 })
		if err == nil {
			t.Fatalf("%q: vector compile succeeded, want unsupported", src)
		}
		if !IsVectorUnsupported(err) {
			t.Fatalf("%q: err = %v, want vector-unsupported", src, err)
		}
	}
	// A genuinely bad reference is a real error, not a fallback signal.
	ast, err := sqlparser.ParseExpr("nosuch + 1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileVector(ast, vecTestResolve, func(int) bool { return true })
	if err == nil || IsVectorUnsupported(err) {
		t.Fatalf("unresolved column: err = %v, want a resolve error", err)
	}
}

func TestVectorColsDeduped(t *testing.T) {
	ast, err := sqlparser.ParseExpr("b + a * b - a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileVector(ast, vecTestResolve, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	cols := p.Cols()
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 0 {
		t.Fatalf("Cols() = %v, want [1 0]", cols)
	}
	if n := p.Ops(); n != 0 {
		t.Fatalf("fresh program reports %d ops", n)
	}
}

// BenchmarkVectorProgram sizes the vector kernels per lane on
// build_columnar's projection, SELECT X1 + X2 FROM X WHERE X3 > 0, over
// one 2048-lane block: on sign-random data a kernel that branches on
// each lane's value mispredicts about half of them, on all-positive data
// none.
func BenchmarkVectorProgram(b *testing.B) {
	const lanes = 2048
	resolve := func(_, col string) (int, error) {
		for i, name := range []string{"X1", "X2", "X3"} {
			if strings.EqualFold(col, name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("no column %q", col)
	}
	for _, data := range []struct {
		name string
		val  func(rng *rand.Rand) float64
	}{
		{"signrandom", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
		{"positive", func(rng *rand.Rand) float64 { return 1 + rng.Float64() }},
	} {
		rng := rand.New(rand.NewSource(1))
		cols, valid := make([][]float64, 3), make([][]bool, 3)
		for c := range cols {
			cols[c], valid[c] = make([]float64, lanes), make([]bool, lanes)
			for r := range cols[c] {
				cols[c][r], valid[c][r] = data.val(rng), true
			}
		}
		for _, src := range []string{"X3 > 0", "X1 + X2"} {
			ast, err := sqlparser.ParseExpr(src)
			if err != nil {
				b.Fatal(err)
			}
			p, err := CompileVector(ast, resolve, func(int) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
			pc, pv := make([][]float64, 0, 3), make([][]bool, 0, 3)
			for _, ord := range p.Cols() {
				pc, pv = append(pc, cols[ord]), append(pv, valid[ord])
			}
			b.Run(strings.ReplaceAll(src, " ", "")+"/"+data.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if p.IsBool() {
						_, err = p.EvalBool(pc, pv, lanes, nil)
					} else {
						_, _, err = p.EvalNum(pc, pv, lanes, nil)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lanes, "ns/lane")
			})
		}
	}
}
