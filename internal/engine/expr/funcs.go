// Package expr compiles parsed SQL expressions into evaluator trees and
// interprets them row by row. The interpretation is intentional: the
// paper's central performance asymmetry is that "SQL arithmetic
// expressions are interpreted at run-time, whereas UDF arithmetic
// expressions are compiled", and this package is the interpreted side.
package expr

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

	"repro/internal/engine/sqltypes"
)

// ScalarFunc is the implementation of a scalar SQL function. Args may
// contain NULLs; most numeric builtins propagate NULL.
type ScalarFunc func(args []sqltypes.Value) (sqltypes.Value, error)

// FloatFunc is the body of a numeric scalar function, written once over
// unboxed arguments: it is called only when every argument is a number,
// and its result is boxed as the definition's Ret (BIGINT truncates,
// anything else is DOUBLE). args is the caller's scratch: valid for the
// call, not to be retained.
type FloatFunc func(args []float64) (float64, error)

// FuncDef describes a scalar function: its arity bounds and body.
// MaxArgs < 0 means variadic. A definition carries exactly one body, Fn
// or Float; registering a Float derives Fn from it (see boxed), so
// Lookup always finds a callable Fn.
//
// Params and Ret are optional static type annotations used by the
// semantic analyzer: Params[i] is the declared type of argument i
// (TypeNull = unchecked; for variadic functions the last entry covers
// all trailing arguments), and Ret is the result type (TypeNull =
// unknown). They do not affect evaluation.
type FuncDef struct {
	Name    string
	MinArgs int
	MaxArgs int
	Fn      ScalarFunc
	Float   FloatFunc
	Params  []sqltypes.Type
	Ret     sqltypes.Type

	// UDF marks user-registered functions (as opposed to built-ins);
	// their invocations are counted in engine_udf_calls_total.
	UDF bool
}

// Registry holds scalar functions by lower-cased name. Scalar UDFs are
// registered here at run time, exactly as Teradata UDFs become callable
// in any SELECT once created.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*FuncDef
}

// NewRegistry returns a registry pre-loaded with the built-in scalar
// functions.
func NewRegistry() *Registry {
	r := &Registry{m: make(map[string]*FuncDef)}
	for _, f := range builtins() {
		if err := r.Register(f); err != nil {
			panic(err) // a built-in definition is wrong: a bug
		}
	}
	return r
}

// Register adds a scalar function. Re-registering a name replaces it.
func (r *Registry) Register(def FuncDef) error {
	if def.Name == "" || (def.Fn == nil) == (def.Float == nil) {
		return fmt.Errorf("expr: invalid function definition: a name and exactly one of Fn and Float are required")
	}
	def.Name = strings.ToLower(def.Name)
	if def.Float != nil {
		def.Fn = def.boxed()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[def.Name] = &def
	return nil
}

// floatScratch lends boxed its argument buffers: Fn is shared by every
// caller of Lookup, so the buffer cannot live in the definition.
var floatScratch = sync.Pool{New: func() any { return new([]float64) }}

// boxed derives a float body's ScalarFunc, and is the one place the
// argument rules of numeric scalar functions live: left to right, the
// first NULL makes the result NULL, a BIGINT widens, a numeric VARCHAR
// parses, and anything else is the error; the body, and any check of
// its own, runs only past all of that. The compiled call reaches the
// body without it when Float accepts every argument.
func (def *FuncDef) boxed() ScalarFunc {
	d := *def
	return func(args []sqltypes.Value) (sqltypes.Value, error) {
		buf := floatScratch.Get().(*[]float64)
		defer floatScratch.Put(buf)
		xs := (*buf)[:0]
		for _, v := range args {
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			f, ok := v.Float()
			if !ok {
				return sqltypes.Null, fmt.Errorf("expr: %s: non-numeric argument %v", d.Name, v)
			}
			xs = append(xs, f)
		}
		*buf = xs
		f, err := d.Float(xs)
		if err != nil {
			return sqltypes.Null, err
		}
		return d.box(f), nil
	}
}

// box is a float body's result as the definition's Ret.
func (def *FuncDef) box(f float64) sqltypes.Value {
	if def.Ret == sqltypes.TypeBigInt {
		return sqltypes.NewBigInt(int64(f))
	}
	return sqltypes.NewDouble(f)
}

// widen is a float body's result as an argument of an enclosing call
// takes it: box(f).Float(), without the box.
func (def *FuncDef) widen(f float64) float64 {
	if def.Ret == sqltypes.TypeBigInt {
		return float64(int64(f))
	}
	return f
}

// Lookup finds a function by name (case-insensitive).
func (r *Registry) Lookup(name string) (*FuncDef, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.m[strings.ToLower(name)]
	return f, ok
}

// Names returns the sorted list of registered function names; used by
// the shell's help output.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for k := range r.m {
		out = append(out, k)
	}
	return out
}

// numeric1 and numeric2 are the float bodies of the fixed-arity math
// built-ins.
func numeric1(name string, f func(float64) float64) FuncDef {
	return FuncDef{Name: name, MinArgs: 1, MaxArgs: 1,
		Params: []sqltypes.Type{sqltypes.TypeDouble}, Ret: sqltypes.TypeDouble,
		Float: func(x []float64) (float64, error) { return f(x[0]), nil }}
}

func numeric2(name string, f func(a, b float64) float64) FuncDef {
	return FuncDef{Name: name, MinArgs: 2, MaxArgs: 2,
		Params: []sqltypes.Type{sqltypes.TypeDouble, sqltypes.TypeDouble}, Ret: sqltypes.TypeDouble,
		Float: func(x []float64) (float64, error) { return f(x[0], x[1]), nil }}
}

func builtins() []FuncDef {
	return []FuncDef{
		numeric1("sqrt", math.Sqrt),
		numeric1("abs", math.Abs),
		numeric1("exp", math.Exp),
		numeric1("ln", math.Log),
		numeric1("log", math.Log10),
		numeric1("floor", math.Floor),
		numeric1("ceil", math.Ceil),
		numeric1("ceiling", math.Ceil),
		numeric1("sign", func(x float64) float64 {
			switch {
			case x > 0:
				return 1
			case x < 0:
				return -1
			default:
				return 0
			}
		}),
		numeric2("power", math.Pow),
		numeric2("pow", math.Pow),
		numeric2("mod", math.Mod),
		numeric2("atan2", math.Atan2),
		{Name: "round", MinArgs: 1, MaxArgs: 2, Fn: fnRound,
			Params: []sqltypes.Type{sqltypes.TypeDouble, sqltypes.TypeBigInt}, Ret: sqltypes.TypeDouble},
		{Name: "coalesce", MinArgs: 1, MaxArgs: -1, Fn: fnCoalesce},
		{Name: "nullif", MinArgs: 2, MaxArgs: 2, Fn: fnNullIf},
		{Name: "least", MinArgs: 1, MaxArgs: -1, Fn: fnLeast},
		{Name: "greatest", MinArgs: 1, MaxArgs: -1, Fn: fnGreatest},
		{Name: "lower", MinArgs: 1, MaxArgs: 1, Fn: fnLower, Ret: sqltypes.TypeVarChar},
		{Name: "upper", MinArgs: 1, MaxArgs: 1, Fn: fnUpper, Ret: sqltypes.TypeVarChar},
		{Name: "length", MinArgs: 1, MaxArgs: 1, Fn: fnLength, Ret: sqltypes.TypeBigInt},
		{Name: "substr", MinArgs: 2, MaxArgs: 3, Fn: fnSubstr, Ret: sqltypes.TypeVarChar},
		{Name: "trim", MinArgs: 1, MaxArgs: 1, Fn: fnTrim, Ret: sqltypes.TypeVarChar},
		{Name: "like", MinArgs: 2, MaxArgs: 2, Fn: fnLike, Ret: sqltypes.TypeBool},
	}
}

func fnRound(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() {
		return sqltypes.Null, nil
	}
	x, ok := args[0].Float()
	if !ok {
		return sqltypes.Null, fmt.Errorf("expr: round: non-numeric argument")
	}
	places := 0.0
	if len(args) == 2 && !args[1].IsNull() {
		places, _ = args[1].Float()
	}
	scale := math.Pow(10, places)
	return sqltypes.NewDouble(math.Round(x*scale) / scale), nil
}

func fnCoalesce(args []sqltypes.Value) (sqltypes.Value, error) {
	for _, a := range args {
		if !a.IsNull() {
			return a, nil
		}
	}
	return sqltypes.Null, nil
}

func fnNullIf(args []sqltypes.Value) (sqltypes.Value, error) {
	if !args[0].IsNull() && !args[1].IsNull() && sqltypes.Equal(args[0], args[1]) {
		return sqltypes.Null, nil
	}
	return args[0], nil
}

func fnLeast(args []sqltypes.Value) (sqltypes.Value, error) {
	best := sqltypes.Null
	for _, a := range args {
		if a.IsNull() {
			return sqltypes.Null, nil
		}
		if best.IsNull() || sqltypes.Compare(a, best) < 0 {
			best = a
		}
	}
	return best, nil
}

func fnGreatest(args []sqltypes.Value) (sqltypes.Value, error) {
	best := sqltypes.Null
	for _, a := range args {
		if a.IsNull() {
			return sqltypes.Null, nil
		}
		if best.IsNull() || sqltypes.Compare(a, best) > 0 {
			best = a
		}
	}
	return best, nil
}

func fnLower(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() {
		return sqltypes.Null, nil
	}
	return sqltypes.NewVarChar(strings.ToLower(args[0].Str())), nil
}

func fnUpper(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() {
		return sqltypes.Null, nil
	}
	return sqltypes.NewVarChar(strings.ToUpper(args[0].Str())), nil
}

func fnLength(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBigInt(int64(len(args[0].Str()))), nil
}

func fnTrim(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() {
		return sqltypes.Null, nil
	}
	return sqltypes.NewVarChar(strings.TrimSpace(args[0].Str())), nil
}

func fnSubstr(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() || args[1].IsNull() {
		return sqltypes.Null, nil
	}
	s := args[0].Str()
	start := int(args[1].Int()) - 1 // SQL is 1-based
	if start < 0 {
		start = 0
	}
	if start > len(s) {
		return sqltypes.NewVarChar(""), nil
	}
	end := len(s)
	if len(args) == 3 && !args[2].IsNull() {
		if n := int(args[2].Int()); start+n < end {
			end = start + n
		}
	}
	return sqltypes.NewVarChar(s[start:end]), nil
}

func fnLike(args []sqltypes.Value) (sqltypes.Value, error) {
	if args[0].IsNull() || args[1].IsNull() {
		return sqltypes.Null, nil
	}
	pat := regexp.QuoteMeta(args[1].Str())
	pat = strings.ReplaceAll(pat, "%", ".*")
	pat = strings.ReplaceAll(pat, "_", ".")
	re, err := regexp.Compile("(?is)^" + pat + "$")
	if err != nil {
		return sqltypes.Null, fmt.Errorf("expr: like: bad pattern %q", args[1].Str())
	}
	return sqltypes.NewBool(re.MatchString(args[0].Str())), nil
}
