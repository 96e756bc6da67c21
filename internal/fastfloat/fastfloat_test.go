package fastfloat

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestTable checks every entry against math/big: with e the exponent the
// conversion implies, T * 2^e <= 10^q < (T+1) * 2^e and 2^127 <= T <
// 2^128 — T is 10^q's top 128 bits, truncated, and the implied exponent
// is floor(log2(10^q)) - 127.
func TestTable(t *testing.T) {
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	two127 := new(big.Int).Lsh(big.NewInt(1), 127)
	for q := minExp10; q <= maxExp10; q++ {
		p := pow10[q-minExp10]
		T := new(big.Int).SetUint64(p.hi)
		T.Lsh(T, 64).Or(T, new(big.Int).SetUint64(p.lo))
		if T.Cmp(two127) < 0 || T.Cmp(two128) >= 0 {
			t.Fatalf("1e%d: entry %x is not 128 bits with the top one set", q, T)
		}
		tenq := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(q))), nil))
		if q < 0 {
			tenq.Inv(tenq)
		}
		e := (217706*q)>>16 - 127
		at := func(m *big.Int) *big.Rat {
			r := new(big.Rat).SetInt(m)
			s := new(big.Int).Lsh(big.NewInt(1), uint(abs(e)))
			if e >= 0 {
				return r.Mul(r, new(big.Rat).SetInt(s))
			}
			return r.Quo(r, new(big.Rat).SetInt(s))
		}
		lo, hi := at(T), at(new(big.Int).Add(T, big.NewInt(1)))
		if lo.Cmp(tenq) > 0 || hi.Cmp(tenq) <= 0 {
			t.Fatalf("1e%d: entry %x * 2^%d does not truncate 10^%d", q, T, e, q)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// parseSeeds are the inputs every parity check starts from: halfway and
// boundary values, 19- and 20-digit mantissas, leading zeros, signed
// zeros, malformed and non-decimal syntax, and exponents just inside
// and just outside the table.
var parseSeeds = []string{
	"0", "-0", "+0", "0.0", "-0.0", "0e999999", "-0e-999999", "000", "0.000",
	"1", "-1", "+.5", "5.", ".5", "-.5e1", "43.270416030198543",
	"9007199254740993", "9007199254740992", "9007199254740994", "-9007199254740993",
	"1e23", "8.988465674311579e307", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"4.9406564584124654e-324", "1.7976931348623157e308", "1.7976931348623159e308",
	"1234567890123456789", "9999999999999999999", "12345678901234567890",
	"1.234567890123456789", "0.1234567890123456789", "1.2345678901234567890",
	"00000000000000000000001", "0.00000000000000000000001234567890123456789",
	"1000000000000000000000", "100000000000000000000.0", "1.0000000000000000000",
	"1e64", "1e65", "1e-64", "1e-65", "9.999999999999999999e64", "1e-83", "1e83",
	"123e-66", "123e-86", "1.5e22", "9007199254740993e22", "1e22", "1e-22",
	"3.4028234663852886e38", "7.2057594037927933e16", "0.1", "0.2", "0.3",
	"1E5", "1e+5", "1e-5", "1E-05", "1e", "1e+", "e5", ".", "+", "-", "",
	"1_0", "1__0", "0x1p-2", "0X1P-2", "0x10", "inf", "-Inf", "+INFINITY", "NaN",
	"nan", " 1", "1 ", "1..5", "1.5.", "--1", "+-1", "1e5e5", "1.e5", "1ee5",
	"1e99999999999999999999", "1e-99999999999999999999", "٣", "1\x00",
}

func checkParse(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	got, err := Parse(s)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Parse(%q) = %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Parse(%q) error %v, strconv %v", s, err, wantErr)
	}
}

func TestParseMatchesStrconv(t *testing.T) {
	for _, s := range parseSeeds {
		checkParse(t, s)
	}
	// Random values in every form the engine writes and reads: 'g' 17
	// (packed n/L/Q, synthetic CSV), shortest (SQL literals), and 'f'
	// and 'e' at random precision, across the table's decades and
	// beyond, and random bit patterns.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var f float64
		if i%4 == 0 {
			f = math.Float64frombits(rng.Uint64())
		} else {
			f = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(161)-80))
		}
		checkParse(t, strconv.FormatFloat(f, 'g', 17, 64))
		checkParse(t, strconv.FormatFloat(f, 'g', -1, 64))
		checkParse(t, strconv.FormatFloat(f, 'e', rng.Intn(22), 64))
		if math.Abs(f) < 1e25 {
			checkParse(t, strconv.FormatFloat(f, 'f', rng.Intn(25), 64))
		}
	}
}

// checkPrefix checks ParsePrefix and ParseIntPrefix on s, as a string
// and as bytes: whenever one reports a prefix of n bytes, strconv
// accepts s[:n] and returns the same value, bit for bit, and both forms
// agree.
func checkPrefix(t *testing.T, s string) {
	t.Helper()
	f, n, ok := ParsePrefix(s)
	if bf, bn, bok := ParsePrefix([]byte(s)); math.Float64bits(bf) != math.Float64bits(f) || bn != n || bok != ok {
		t.Fatalf("ParsePrefix(%q) = %v, %d, %v on a string, %v, %d, %v on bytes", s, f, n, ok, bf, bn, bok)
	}
	if ok {
		if n <= 0 || n > len(s) {
			t.Fatalf("ParsePrefix(%q) took %d bytes", s, n)
		}
		want, err := strconv.ParseFloat(s[:n], 64)
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("ParsePrefix(%q) = %v (%#x) over %q; strconv %v (%#x), %v", s, f, math.Float64bits(f), s[:n], want, math.Float64bits(want), err)
		}
	}
	i, n, ok := ParseIntPrefix(s)
	if bi, bn, bok := ParseIntPrefix([]byte(s)); bi != i || bn != n || bok != ok {
		t.Fatalf("ParseIntPrefix(%q) = %d, %d, %v on a string, %d, %d, %v on bytes", s, i, n, ok, bi, bn, bok)
	}
	if ok {
		if n <= 0 || n > len(s) {
			t.Fatalf("ParseIntPrefix(%q) took %d bytes", s, n)
		}
		if want, err := strconv.ParseInt(s[:n], 10, 64); err != nil || i != want {
			t.Fatalf("ParseIntPrefix(%q) = %d over %q; strconv %d, %v", s, i, s[:n], want, err)
		}
	}
}

func TestPrefixMatchesStrconv(t *testing.T) {
	for _, s := range parseSeeds {
		for _, suffix := range []string{"", ",", ",1", "\r\n", "x", "e", "e+", ".5", "0"} {
			checkPrefix(t, s+suffix)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		f := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(161)-80))
		checkPrefix(t, strconv.FormatFloat(f, 'g', 17, 64)+",")
		checkPrefix(t, strconv.FormatInt(rng.Int63()>>uint(rng.Intn(63)), 10)+",")
	}
}

// TestFastPath pins which inputs Parse and the prefix scans answer
// without strconv, and how many bytes the prefix scans take: the parity
// checks above would pass just as well if they answered none.
func TestFastPath(t *testing.T) {
	for _, c := range []struct {
		s    string
		fast bool
	}{
		{"43.270416030198543", true}, {"-0.5", true}, {"1e10", true}, {"0.001", true},
		{"1234567890123456789", true}, {"9.999999999999999999e64", true}, {"1e-64", true},
		{"-0", true}, {"0e999999", true}, {"5.", true}, {"+.5", true},
		{"12345678901234567890", false}, {"1e65", false}, {"1e-65", false},
		{"9007199254740993", false}, // exactly halfway: Eisel–Lemire declines
		{"0x1p-2", false}, {"inf", false}, {"1_0", false}, {".", false}, {"1e", false},
	} {
		_, n, ok := ParsePrefix(c.s)
		if fast := ok && n == len(c.s); fast != c.fast {
			t.Errorf("fast path on %q: %v, want %v", c.s, fast, c.fast)
		}
	}
	for _, c := range []struct {
		s string
		n int // bytes taken; 0 when the scan declines
	}{
		{"1.5,2", 3}, {"-0.25\r\n", 5}, {"1e", 1}, {"1e+,", 1}, {"2E-3,", 4}, {"-.5e1x", 5},
		{"5.,", 2}, {"0x1p-2", 1}, {"1_0", 1}, {"1.5.", 3}, {"1e5e5", 3}, {" 1", 0}, {",1", 0},
		{"inf", 0}, {"", 0}, {"-", 0}, {"12345678901234567890,", 0}, {"1e65,", 0},
	} {
		if _, n, ok := ParsePrefix([]byte(c.s)); n != c.n || ok != (c.n > 0) {
			t.Errorf("ParsePrefix(%q) took %d bytes (%v), want %d", c.s, n, ok, c.n)
		}
	}
	for _, c := range []struct {
		s string
		n int
	}{
		{"123,4", 3}, {"-0", 2}, {"+7x", 2}, {"1.5", 1}, {"123456789012345678,", 18},
		{"-123456789012345678", 19}, {"1234567890123456789", 0}, {"-", 0}, {"", 0}, {" 1", 0}, {"x1", 0},
	} {
		if _, n, ok := ParseIntPrefix([]byte(c.s)); n != c.n || ok != (c.n > 0) {
			t.Errorf("ParseIntPrefix(%q) took %d bytes (%v), want %d", c.s, n, ok, c.n)
		}
	}
}

// FuzzParseFloat checks Parse against strconv.ParseFloat(s, 64) — the
// same result bits and the same error — and the prefix scans against
// strconv on the prefixes they report.
func FuzzParseFloat(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Add("1.5,2")
	f.Add("-12,3\r\n")
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
		checkPrefix(t, s)
	})
}
