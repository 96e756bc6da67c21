// Package sqltypes defines the SQL value system used throughout the
// embedded engine: typed values, NULL semantics, coercions and
// comparisons. It is deliberately small — the engine supports the types
// the paper's workloads need (DOUBLE, BIGINT, VARCHAR) plus NULL.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fastfloat"
)

// Type identifies the SQL type of a value or column.
type Type int

const (
	// TypeNull is the type of the untyped NULL literal.
	TypeNull Type = iota
	// TypeDouble is a 64-bit IEEE floating point number (SQL DOUBLE).
	TypeDouble
	// TypeBigInt is a 64-bit signed integer (SQL BIGINT).
	TypeBigInt
	// TypeVarChar is a variable-length string (SQL VARCHAR).
	TypeVarChar
	// TypeBool is the internal boolean produced by predicates. It is not
	// a storable column type; predicates surface it transiently.
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeDouble:
		return "DOUBLE"
	case TypeBigInt:
		return "BIGINT"
	case TypeVarChar:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType converts a SQL type name to a Type. It accepts the common
// aliases users write in CREATE TABLE statements.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "DOUBLE", "FLOAT", "REAL", "DOUBLE PRECISION", "NUMERIC", "DECIMAL":
		return TypeDouble, nil
	case "BIGINT", "INT", "INTEGER", "SMALLINT":
		return TypeBigInt, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return TypeVarChar, nil
	default:
		return TypeNull, fmt.Errorf("sqltypes: unknown type %q", name)
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// Values are passed by value everywhere; they are three words wide and
// never share mutable state, which keeps the parallel executor free of
// data races on row buffers.
type Value struct {
	typ Type
	f   float64 // payload for Double, BigInt (as int64 bits) and Bool
	s   string  // payload for VarChar
}

// Null is the SQL NULL value.
var Null = Value{}

// NewDouble returns a DOUBLE value.
func NewDouble(f float64) Value { return Value{typ: TypeDouble, f: f} }

// NewBigInt returns a BIGINT value.
func NewBigInt(i int64) Value {
	return Value{typ: TypeBigInt, f: math.Float64frombits(uint64(i))}
}

// NewVarChar returns a VARCHAR value.
func NewVarChar(s string) Value { return Value{typ: TypeVarChar, s: s} }

// NewBool returns an internal boolean value.
func NewBool(b bool) Value {
	v := Value{typ: TypeBool}
	if b {
		v.f = 1
	}
	return v
}

// Type reports the value's type. NULL values report TypeNull.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Float returns the value as a float64. BIGINT values are widened;
// parseable VARCHAR values are converted. The second result reports
// whether the conversion was possible (NULL and non-numeric strings
// yield false).
//
// The DOUBLE case is split off so that it inlines into the caller's
// loop (BenchmarkScoreStatement: 136 arguments a row); the rest is a
// call.
func (v Value) Float() (float64, bool) {
	if v.typ == TypeDouble {
		return v.f, true
	}
	return v.convertFloat()
}

func (v Value) convertFloat() (float64, bool) {
	switch v.typ {
	case TypeBigInt:
		return float64(v.Int()), true
	case TypeBool:
		return v.f, true
	case TypeVarChar:
		f, err := fastfloat.Parse(strings.TrimSpace(v.s))
		return f, err == nil
	default:
		return 0, false
	}
}

// AsFloat returns the value as float64 or an error naming the value
// and its type when it is not numeric. Production code paths (scoring
// decoders, harness loaders) use this instead of MustFloat so a stray
// VARCHAR or NULL surfaces as a SQL error, not an engine panic.
func (v Value) AsFloat() (float64, error) {
	f, ok := v.Float()
	if !ok {
		return 0, fmt.Errorf("sqltypes: value %v (%s) is not numeric", v, v.typ)
	}
	return f, nil
}

// MustFloat returns the value as float64 and panics if it is not
// numeric.
//
// Test-only convenience: production code must use AsFloat (or a
// Float() kind check) instead — the statlint `valuekind` analyzer
// flags MustFloat calls in non-test files.
func (v Value) MustFloat() float64 {
	f, err := v.AsFloat()
	if err != nil {
		panic(err.Error())
	}
	return f
}

// Int returns the BIGINT payload. For DOUBLE values it truncates.
func (v Value) Int() int64 {
	switch v.typ {
	case TypeBigInt:
		return int64(math.Float64bits(v.f))
	case TypeDouble:
		return int64(v.f)
	case TypeBool:
		return int64(v.f)
	default:
		return 0
	}
}

// Str returns the VARCHAR payload, or a rendered form for other types.
func (v Value) Str() string {
	if v.typ == TypeVarChar {
		return v.s
	}
	return v.String()
}

// Bool returns the boolean payload; NULL and zero values are false.
func (v Value) Bool() bool {
	switch v.typ {
	case TypeBool, TypeDouble:
		return v.f != 0
	case TypeBigInt:
		return v.Int() != 0
	default:
		return false
	}
}

// String renders the value the way the engine's shell prints it.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeDouble:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeBigInt:
		return strconv.FormatInt(v.Int(), 10)
	case TypeVarChar:
		return v.s
	case TypeBool:
		if v.f != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(%d)", int(v.typ))
	}
}

// Compare orders two values: -1, 0 or +1. NULLs sort first and compare
// equal to each other (this is the grouping/ordering comparison, not
// the SQL predicate `=`, which returns NULL for NULL operands — the
// expression interpreter handles that distinction).
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.typ == TypeVarChar && b.typ == TypeVarChar {
		return strings.Compare(a.s, b.s)
	}
	af, aok := a.Float()
	bf, bok := b.Float()
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	// Mixed incomparable types: order by type id for determinism.
	switch {
	case a.typ < b.typ:
		return -1
	case a.typ > b.typ:
		return 1
	default:
		return strings.Compare(a.s, b.s)
	}
}

// Equal reports whether two values are identical for grouping purposes
// (NULL equals NULL).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Coerce converts v to type t, if possible. Converting NULL yields NULL
// of any type. Lossy numeric-to-integer conversion truncates, matching
// SQL CAST semantics.
func Coerce(v Value, t Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch t {
	case TypeDouble:
		f, ok := v.Float()
		if !ok {
			return Null, fmt.Errorf("sqltypes: cannot coerce %v to DOUBLE", v)
		}
		return NewDouble(f), nil
	case TypeBigInt:
		switch v.typ {
		case TypeBigInt:
			return v, nil
		case TypeDouble, TypeBool:
			return NewBigInt(v.Int()), nil
		case TypeVarChar:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				f, ferr := fastfloat.Parse(strings.TrimSpace(v.s))
				if ferr != nil {
					return Null, fmt.Errorf("sqltypes: cannot coerce %q to BIGINT", v.s)
				}
				return NewBigInt(int64(f)), nil
			}
			return NewBigInt(i), nil
		}
	case TypeVarChar:
		return NewVarChar(v.String()), nil
	case TypeBool:
		return NewBool(v.Bool()), nil
	}
	return Null, fmt.Errorf("sqltypes: cannot coerce %v to %v", v, t)
}
