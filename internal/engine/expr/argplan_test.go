package expr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// floatRegistry registers three float bodies beside the built-ins; sumsq
// is a UDF and counts in *calls how often its body ran.
func floatRegistry(t *testing.T, calls *int) *Registry {
	t.Helper()
	reg := NewRegistry()
	defs := []FuncDef{
		{Name: "SumSq", MinArgs: 1, MaxArgs: -1, Ret: sqltypes.TypeDouble, UDF: true,
			Float: func(x []float64) (float64, error) {
				*calls++
				var s float64
				for _, v := range x {
					s += v * v
				}
				return s, nil
			}},
		{Name: "argmax", MinArgs: 1, MaxArgs: -1, Ret: sqltypes.TypeBigInt,
			Float: func(x []float64) (float64, error) {
				best := 0
				for j, v := range x {
					if v > x[best] {
						best = j
					}
				}
				return float64(best + 1), nil
			}},
		{Name: "picky", MinArgs: 2, MaxArgs: -1,
			Float: func(x []float64) (float64, error) {
				if len(x)%2 != 0 {
					return 0, fmt.Errorf("picky expects pairs, got %d", len(x))
				}
				return x[0], nil
			}},
	}
	for _, def := range defs {
		if err := reg.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// row columns: a DOUBLE, b BIGINT, c NULL, s VARCHAR "hi", n VARCHAR " 1.5 ".
func planRow() sqltypes.Row { return append(stdRow(), sqltypes.NewVarChar(" 1.5 ")) }

func planResolver(table, col string) (int, error) {
	if i := strings.Index("abcsn", strings.ToLower(col)); i >= 0 && len(col) == 1 {
		return i, nil
	}
	return 0, fmt.Errorf("no column %q", col)
}

// TestFloatBodyCall drives one float body through every way a call
// reaches it — compiled with an owner, compiled without, and through the
// Fn that Lookup hands out — over the argument rules the adapter owns.
func TestFloatBodyCall(t *testing.T) {
	var bodyCalls int
	reg := floatRegistry(t, &bodyCalls)
	sc := &Scope{Funcs: reg}
	for _, c := range []struct {
		src, want, wantErr string
		param              string // the VARCHAR bound to the `?` of src; "" binds NULL
	}{
		{"sumsq(a, b)", "D:106.25", "", ""},         // DOUBLE and BIGINT columns: the unboxed gather
		{"sumsq(a, 2, 0.5)", "D:10.5", "", ""},      // literal slots, converted once
		{"sumsq(a + 1, b * 2)", "D:412.25", "", ""}, // evaluator slots
		{"sumsq(a, n)", "D:8.5", "", ""},            // a numeric VARCHAR column parses
		{"sumsq(?, b)", "D:109", "", "3"},           // and so does a numeric VARCHAR parameter
		{"sumsq(a, c)", "NULL", "", ""},             // a NULL column
		{"sumsq(a, NULL)", "NULL", "", ""},          // a NULL literal: always the boxed form
		{"sumsq(?, a)", "NULL", "", ""},             // a NULL parameter
		{"sumsq(c, s)", "NULL", "", ""},             // left to right: the NULL comes first
		{"sumsq(s, c)", "", "expr: sumsq: non-numeric argument hi", ""},
		{"sumsq(a, ?)", "", "expr: sumsq: non-numeric argument x", "x"},
		{"sumsq(1 / (b - 10), s)", "", "division by zero", ""}, // an argument's own error precedes the check of another
		{"argmax(a, b, 3)", "I:2", "", ""},                     // Ret decides the box
		{"argmax(sumsq(a), sumsq(b), 7)", "I:2", "", ""},       // nested float bodies
		{"picky(a, b, a)", "", "picky expects pairs, got 3", ""},
		{"sqrt(b + 6)", "D:4", "", ""}, // the math built-ins are float bodies too
		{"power(n, 2)", "D:2.25", "", ""},
		{"power(s, 2)", "", "expr: power: non-numeric argument hi", ""},
		{"power(c, s)", "NULL", "", ""},
		{"power(s, c)", "", "expr: power: non-numeric argument hi", ""}, // left to right for two arguments too
		{"picky(a, b, c)", "NULL", "", ""},                              // a NULL ends the call before the body's own checks
	} {
		sc.Params = []sqltypes.Value{sqltypes.Null}
		if c.param != "" {
			sc.Params[0] = sqltypes.NewVarChar(c.param)
		}
		ast, err := sqlparser.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		owned, err := sc.Compile(ast, planResolver)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		evs := []Evaluator{owned}
		if !strings.Contains(c.src, "?") {
			free, err := Compile(ast, planResolver, reg)
			if err != nil {
				t.Fatalf("compile %q: %v", c.src, err)
			}
			evs = append(evs, free)
		}
		for _, ev := range evs {
			for rep := 0; rep < 2; rep++ { // the plan's buffers are reused
				v, err := ev.Eval(planRow())
				got := "NULL"
				switch v.Type() {
				case sqltypes.TypeDouble:
					got = fmt.Sprintf("D:%v", v)
				case sqltypes.TypeBigInt:
					got = fmt.Sprintf("I:%v", v)
				}
				if c.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), c.wantErr) {
						t.Fatalf("%s: error %v, want %q", c.src, err, c.wantErr)
					}
				} else if err != nil || got != c.want {
					t.Fatalf("%s = %s, %v; want %s", c.src, got, err, c.want)
				}
			}
		}
	}

	// The Fn Lookup hands out is derived from the same body.
	def, _ := reg.Lookup("sumsq")
	before := bodyCalls
	v, err := def.Fn([]sqltypes.Value{sqltypes.NewBigInt(3), sqltypes.NewVarChar("4"), sqltypes.NewBool(true)})
	if err != nil || v.MustFloat() != 26 || bodyCalls != before+1 {
		t.Fatalf("derived Fn: %v, %v (%d body calls)", v, err, bodyCalls-before)
	}
	if v, err := def.Fn([]sqltypes.Value{sqltypes.Null, sqltypes.NewVarChar("x")}); err != nil || !v.IsNull() {
		t.Fatalf("derived Fn on a leading NULL: %v, %v", v, err)
	}
	if _, err := def.Fn([]sqltypes.Value{sqltypes.NewVarChar("x"), sqltypes.Null}); err == nil {
		t.Fatal("derived Fn on a leading non-number must fail")
	}

	// Exactly one body per definition.
	fn := func([]sqltypes.Value) (sqltypes.Value, error) { return sqltypes.Null, nil }
	if err := reg.Register(FuncDef{Name: "both", Fn: fn, Float: func([]float64) (float64, error) { return 0, nil }}); err == nil {
		t.Fatal("a definition with both bodies must be rejected")
	}
	if err := reg.Register(FuncDef{Name: "neither"}); err == nil {
		t.Fatal("a definition with no body must be rejected")
	}
}

// TestScopeCountsUDFCalls: an owned evaluator counts UDF invocations in
// its scope and leaves the shared counter alone; one without an owner
// counts there at once; built-ins count nowhere; the count is taken
// before the call, so a failing invocation is one too.
func TestScopeCountsUDFCalls(t *testing.T) {
	var bodyCalls int
	reg := floatRegistry(t, &bodyCalls)
	compile := func(sc *Scope, src string) Evaluator {
		ast, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Compile(ast, planResolver, reg)
		if sc != nil {
			ev, err = sc.Compile(ast, planResolver)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	sc := &Scope{Funcs: reg}
	shared := obs.UDFCalls.Value()
	for _, src := range []string{"sumsq(a, b)", "sumsq(sumsq(a), sqrt(b))", "sumsq(a, s)", "sqrt(a)", "CASE WHEN b > 100 THEN sumsq(a) ELSE 0 END"} {
		compile(sc, src).Eval(planRow())
	}
	if sc.Calls != 4 || obs.UDFCalls.Value() != shared {
		t.Fatalf("owned: scope counted %d (want 4), engine_udf_calls_total moved by %d", sc.Calls, obs.UDFCalls.Value()-shared)
	}
	compile(nil, "sumsq(sumsq(a), b)").Eval(planRow())
	if got := obs.UDFCalls.Value() - shared; got != 2 {
		t.Fatalf("without an owner: engine_udf_calls_total moved by %d, want 2", got)
	}
}

// TestArgPlanGather pins the plan the executor's aggregate calls share:
// the three slot classes, the buffer reuse, and the one range check.
func TestArgPlanGather(t *testing.T) {
	sc := &Scope{Funcs: NewRegistry(), Params: []sqltypes.Value{sqltypes.NewBigInt(7)}}
	var args []sqlparser.Expr
	for _, src := range []string{"'triang'", "s", "a", "?", "a * 2", "NULL"} {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, e)
	}
	p, err := sc.PlanArgs(args, planResolver)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.lits) != 2 || len(p.cols) != 2 || len(p.evs) != 2 || p.need != 4 {
		t.Fatalf("plan classes: %d literal, %d column, %d evaluator slots, reads %d columns", len(p.lits), len(p.cols), len(p.evs), p.need)
	}
	row := planRow()
	for rep := 0; rep < 2; rep++ {
		vals, err := p.Fill(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(vals); got != fmt.Sprint([]sqltypes.Value{sqltypes.NewVarChar("triang"), row[3], row[0], sqltypes.NewBigInt(7), sqltypes.NewDouble(5), sqltypes.Null}) {
			t.Fatalf("gathered %s", got)
		}
		row[0] = sqltypes.NewDouble(math.Float64frombits(math.Float64bits(2.5))) // same value, a fresh row next time
	}
	if _, err := p.Fill(row[:3], nil); err == nil || !strings.Contains(err.Error(), "row of width 3") {
		t.Fatalf("a short row: %v", err)
	}
	var none ArgPlan // count(*)
	if vals, err := none.Fill(nil, nil); err != nil || len(vals) != 0 {
		t.Fatalf("the zero plan: %v, %v", vals, err)
	}
}

// TestArgPlanBound pins the fourth slot class: with Scope.TailAt 3 the
// columns s and n are the join tail's. A bound slot is filled — and
// converted for the float body — once per Bind, so a tail row written
// behind the plan's back is not seen until the next Bind; a bound value
// that does not convert sends every call of its binding boxed.
func TestArgPlanBound(t *testing.T) {
	var bodyCalls int
	sc := &Scope{Funcs: floatRegistry(t, &bodyCalls), TailAt: 3}
	compile := func(src string) Evaluator {
		ast, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := sc.Compile(ast, planResolver)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	call, item := compile("sumsq(a, s, n)"), compile("a + s")
	plan := &call.(*funcEval).plan
	if _, bare := plan.Columns(); len(plan.cols) != 1 || len(plan.bound) != 2 || bare {
		t.Fatalf("plan classes: %d column, %d bound slots, bare %v", len(plan.cols), len(plan.bound), bare)
	}
	if _, err := call.Eval(planRow()[:3]); err == nil || !strings.Contains(err.Error(), "bound tail row of width 0") {
		t.Fatalf("before any Bind: %v", err)
	}
	eval := func(ev Evaluator) string {
		v, err := ev.Eval(planRow()[:3]) // the driving row alone: a, b, c
		if err != nil {
			return "error: " + err.Error()
		}
		return v.String()
	}
	tail := sqltypes.Row{sqltypes.NewDouble(2), sqltypes.NewBigInt(3)}
	sc.Bind(tail)
	if got := eval(call) + " " + eval(item); got != "19.25 4.5" {
		t.Fatalf("bound (2, 3): %s", got)
	}
	tail[0] = sqltypes.NewDouble(100)
	if got := eval(call); got != "19.25" {
		t.Fatalf("a tail written without a Bind: %s, want the bound 19.25", got)
	}
	for _, c := range []struct {
		tail sqltypes.Row
		want string
	}{
		{tail, "10015.25"}, // the same row bound again
		{sqltypes.Row{sqltypes.Null, sqltypes.NewDouble(3)}, "NULL"},
		{sqltypes.Row{sqltypes.NewVarChar("4"), sqltypes.NewDouble(3)}, "31.25"},
		{sqltypes.Row{sqltypes.NewVarChar("x"), sqltypes.NewDouble(3)}, "error: expr: sumsq: non-numeric argument x"},
		{sqltypes.Row{sqltypes.NewDouble(1), sqltypes.NewDouble(1)}, "8.25"}, // floats again after a boxed binding
		{sqltypes.Row{sqltypes.NewDouble(1)}, "error: expr: bound tail row of width 1, the call's arguments read column 1 of it"},
	} {
		sc.Bind(c.tail)
		for rep := 0; rep < 2; rep++ {
			if got := eval(call); got != c.want {
				t.Fatalf("bound %v: %s, want %s", c.tail, got, c.want)
			}
		}
	}
}

// TestFloatCall pins a call's float-row form: which calls have one, the
// driving and tail columns it names, the runs Place makes of its gather
// entries, and that Eval on a float row returns what the boxed Eval
// returns for the same row — a nested BIGINT result truncated as its
// boxed form is — with the bodies run and the UDF calls counted alike.
// With TailAt 3, a, b and c are the driving row's and s and n the tail's.
func TestFloatCall(t *testing.T) {
	var bodyCalls int
	reg := floatRegistry(t, &bodyCalls)
	if err := reg.Register(FuncDef{Name: "half", MinArgs: 1, MaxArgs: 1, Ret: sqltypes.TypeBigInt,
		Float: func(x []float64) (float64, error) { return x[0] / 2, nil }}); err != nil {
		t.Fatal(err)
	}
	sc := &Scope{Funcs: reg, TailAt: 3}
	compile := func(src string) Evaluator {
		ast, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := sc.Compile(ast, planResolver)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	for _, src := range []string{"a", "upper(s)", "sumsq(a * 1)", "sumsq(a, 'x')", "sumsq(a, NULL)", "sumsq(a, argmax(b * 2))", "sumsq(a, upper(s))"} {
		if _, ok := AsFloatCall(compile(src)); ok {
			t.Fatalf("%s has a float-row form", src)
		}
	}
	at := []int{1, 0, -1} // the float row is (b, a)
	for _, c := range []struct {
		src         string
		cols, bound string
		runs        int
	}{
		{"sumsq(a, b, s, argmax(b, a, n), 2.5)", "[1 0 0 1]", "[1 0]", 2},
		{"sumsq(b, a, half(a), n, half(b))", "[0 1 1 0]", "[1]", 1},
		{"sumsq(half(sumsq(a, s)), 3)", "[0]", "[0]", 0},
	} {
		ev := compile(c.src)
		fc, ok := AsFloatCall(ev)
		if !ok {
			t.Fatalf("%s has no float-row form", c.src)
		}
		cols, bound := fc.Columns(nil, nil)
		if fmt.Sprint(cols) != c.cols || fmt.Sprint(bound) != c.bound {
			t.Fatalf("%s names columns %v and tail columns %v, want %s and %s", c.src, cols, bound, c.cols, c.bound)
		}
		fc.Place(at)
		if n := len(ev.(*funcEval).plan.runs); n != c.runs {
			t.Fatalf("%s gathers in %d runs, want %d", c.src, n, c.runs)
		}
		sc.Bind(sqltypes.Row{sqltypes.NewDouble(2), sqltypes.NewBigInt(3)})
		row, frow := planRow()[:3], []float64{10, 2.5}
		calls, bodies := sc.Calls, bodyCalls
		boxed, err := ev.Eval(row)
		if err != nil {
			t.Fatal(err)
		}
		boxedCalls, boxedBodies := sc.Calls-calls, bodyCalls-bodies
		got, err := fc.Eval(frow)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type() != boxed.Type() || math.Float64bits(got.MustFloat()) != math.Float64bits(boxed.MustFloat()) {
			t.Fatalf("%s on the float row: %v, boxed %v", c.src, got, boxed)
		}
		if sc.Calls-calls != 2*boxedCalls || bodyCalls-bodies != 2*boxedBodies {
			t.Fatalf("%s: %d calls counted and %d bodies run on the float row, %d and %d boxed", c.src, sc.Calls-calls-boxedCalls, bodyCalls-bodies-boxedBodies, boxedCalls, boxedBodies)
		}
	}
}
