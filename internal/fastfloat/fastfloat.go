// Package fastfloat converts decimal text to float64 exactly as
// strconv.ParseFloat(s, 64) does — the same result bits and the same
// error for every input — but reaches the common case without
// strconv's general front end (bases, underscores, hex floats, special
// names). Its prefix forms, ParsePrefix and ParseIntPrefix, convert the
// number a longer text starts with and report the bytes it took, so a
// caller can parse fields in place without cutting them out first.
// Parse scans its whole string with a loop of its own (scan); the
// prefix forms share the conversion, not the scan.
//
// The fast path accepts only [+-]digits[.digits][(e|E)[+-]digits] with
// at most 19 significant digits and a decimal exponent in
// [minExp10, maxExp10]. Those inputs are converted with Clinger's exact
// float64 arithmetic where it applies, and otherwise with the
// Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
// Second", SPE 2021) over a 128-bit power-of-ten table. Both produce
// the correctly rounded result, so they agree with strconv bit for bit.
// Everything else — other syntax, more digits, exponents outside the
// table, results Eisel–Lemire cannot decide, and every error — is
// strconv.ParseFloat's own.
package fastfloat

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// The table covers 10^minExp10 through 10^maxExp10. With at most 19
// significant digits that spans about 1e-64 to 1e83: no fast-path result
// is subnormal or overflows, and text data (CSV fields, SQL literals,
// packed n/L/Q in 'g' 17) falls well inside.
const (
	minExp10 = -64
	maxExp10 = 64
)

// pow10 holds, for each q in [minExp10, maxExp10], the 128 most
// significant bits of 10^q, truncated: 10^q ≈ (hi<<64 | lo) * 2^e with
// e = (217706*q)>>16 - 127 and the top bit of hi set.
var pow10 = buildPow10()

func buildPow10() (t [maxExp10 - minExp10 + 1]struct{ hi, lo uint64 }) {
	// 10^q * 2^400 is an integer of at least 187 bits for every q in
	// range; truncating it to its top 128 bits truncates 10^q's.
	const scale = 400
	one, ten := big.NewInt(1), big.NewInt(10)
	p, v := new(big.Int), new(big.Int)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for q := minExp10; q <= maxExp10; q++ {
		if q >= 0 {
			p.Exp(ten, big.NewInt(int64(q)), nil)
			v.Lsh(p, scale)
		} else {
			p.Exp(ten, big.NewInt(int64(-q)), nil)
			v.Quo(v.Lsh(one, scale), p)
		}
		v.Rsh(v, uint(v.BitLen()-128))
		e := &t[q-minExp10]
		e.lo = new(big.Int).And(v, mask).Uint64()
		e.hi = v.Rsh(v, 64).Uint64()
	}
	return t
}

// exact holds the powers of ten a float64 represents exactly.
var exact = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Parse returns strconv.ParseFloat(s, 64).
func Parse(s string) (float64, error) {
	man, exp10, neg, ok := scan(s)
	if ok {
		if f, ok := convert(man, exp10, neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(s, 64)
}

// scan reads s as [+-]digits[.digits][(e|E)[+-]digits] into a decimal
// mantissa and exponent, s = ±man * 10^exp10. It reports false for any
// other text and for more than 19 significant digits.
func scan(s string) (man uint64, exp10 int, neg, ok bool) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	nd := 0 // significant digits in man; leading zeros are not
	start := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		if nd == 19 {
			return 0, 0, false, false
		}
		man = man*10 + uint64(s[i]-'0')
		if man != 0 {
			nd++
		}
	}
	digits := i - start
	if i < len(s) && s[i] == '.' {
		i++
		start = i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if nd == 19 {
				return 0, 0, false, false
			}
			man = man*10 + uint64(s[i]-'0')
			if man != 0 {
				nd++
			}
		}
		exp10 = start - i
		digits += i - start
	}
	if digits == 0 {
		return 0, 0, false, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		start = i
		e := 0
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if e < 10000 { // beyond any table: saturate, as strconv does
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	return man, exp10, neg, i == len(s)
}

// ParsePrefix converts the longest prefix of s of the form
// [+-]digits[.digits][(e|E)[+-]digits] and returns it with the prefix's
// length n: f is strconv.ParseFloat(s[:n], 64). It reports false when s
// starts with no such prefix or with one the fast path does not take;
// the caller then has strconv parse the text it delimits.
func ParsePrefix[T string | []byte](s T) (f float64, n int, ok bool) {
	man, exp10, neg, n, ok := scanPrefix(s)
	if ok {
		f, ok = convert(man, exp10, neg)
	}
	if !ok {
		return 0, 0, false
	}
	return f, n, true
}

// maxIntDigits is the most digits ParseIntPrefix takes: any 18-digit
// decimal fits an int64.
const maxIntDigits = 18

// ParseIntPrefix converts the longest prefix of s of the form
// [+-]digits and returns it with the prefix's length n: i is
// strconv.ParseInt(s[:n], 10, 64). It reports false when s starts with
// no digits after the sign, or with more than 18.
func ParseIntPrefix[T string | []byte](s T) (i int64, n int, ok bool) {
	neg := false
	if n < len(s) && (s[n] == '+' || s[n] == '-') {
		neg = s[n] == '-'
		n++
	}
	start := n
	var u uint64
	for ; n < len(s) && s[n]-'0' <= 9; n++ {
		u = u*10 + uint64(s[n]-'0')
	}
	if n == start || n-start > maxIntDigits {
		return 0, 0, false
	}
	if neg {
		return -int64(u), n, true
	}
	return int64(u), n, true
}

// scanPrefix is scan for the longest prefix of s of that form, s[:n] =
// ±man * 10^exp10. It reports false when s starts with no such prefix
// or the mantissa has more than 19 significant digits. An exponent
// marker with no digits after it ends the prefix before the marker.
func scanPrefix[T string | []byte](s T) (man uint64, exp10 int, neg bool, n int, ok bool) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	// Leading zeros, before the point or after it ahead of the first
	// nonzero digit, are not significant; every digit after one is.
	start := i
	for i < len(s) && s[i] == '0' {
		i++
	}
	sig := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	nd := i - sig
	digits := i - start
	if i < len(s) && s[i] == '.' {
		i++
		start = i
		if nd == 0 {
			for i < len(s) && s[i] == '0' {
				i++
			}
		}
		sig = i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			man = man*10 + uint64(s[i]-'0')
		}
		nd += i - sig
		exp10 = start - i
		digits += i - start
	}
	if digits == 0 || nd > 19 {
		return 0, 0, false, 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		j := i + 1
		eneg := false
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			eneg = s[j] == '-'
			j++
		}
		start = j
		e := 0
		for ; j < len(s) && s[j]-'0' <= 9; j++ {
			if e < 10000 { // beyond any table: saturate, as strconv does
				e = e*10 + int(s[j]-'0')
			}
		}
		if j > start {
			if eneg {
				e = -e
			}
			exp10 += e
			i = j
		}
	}
	return man, exp10, neg, i, true
}

// convert returns the float64 nearest ±man * 10^exp10, or false when
// the exponent is outside the table or Eisel–Lemire cannot decide.
func convert(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger: man and 10^|exp10| are exact float64s, so one IEEE
	// multiply or divide rounds their product correctly.
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 >= 0 {
			f *= exact[exp10]
		} else {
			f /= exact[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	return eiselLemire(man, exp10, neg)
}

// eiselLemire multiplies the normalized mantissa by the truncated
// 128-bit power of ten and rounds the product's top 54 bits to 53. It
// declines when the truncation could have changed the rounding, and
// when the result would be subnormal or infinite (never in range here).
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	p := &pow10[exp10-minExp10]
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	hi, lo := bits.Mul64(man, p.hi)
	// The low 9 bits of hi all ones and a carry possible from the
	// product's next 64 bits: take them into account.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yhi, ylo := bits.Mul64(man, p.lo)
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Exactly halfway between two float64s: the truncated table cannot
	// tell which way to round.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
