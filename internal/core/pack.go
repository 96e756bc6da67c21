package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fastfloat"
)

// Pack serializes the NLQ into the single string value an aggregate UDF
// returns (Teradata UDFs cannot return arrays or matrices; §2.2). The
// layout is "d;type;n;L;Q;min;max" with pipe-separated vectors; for
// Triangular only the lower triangle of Q is emitted and for Diagonal
// only the diagonal, matching the operation counts the UDF performs.
func (s *NLQ) Pack() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d;%s;%s;", s.D, s.Type, formatF(s.N))
	packVec(&b, s.L)
	b.WriteByte(';')
	first := true
	emit := func(v float64) {
		if !first {
			b.WriteByte('|')
		}
		first = false
		b.WriteString(formatF(v))
	}
	switch s.Type {
	case Diagonal:
		for a := 0; a < s.D; a++ {
			emit(s.Q[a*s.D+a])
		}
	case Triangular:
		for a := 0; a < s.D; a++ {
			for c := 0; c <= a; c++ {
				emit(s.Q[a*s.D+c])
			}
		}
	case Full:
		for _, v := range s.Q {
			emit(v)
		}
	}
	b.WriteByte(';')
	packVec(&b, s.Min)
	b.WriteByte(';')
	packVec(&b, s.Max)
	return b.String()
}

// Unpack parses a string produced by Pack.
func Unpack(s string) (*NLQ, error) {
	parts := strings.Split(s, ";")
	if len(parts) != 7 {
		return nil, fmt.Errorf("core: packed NLQ has %d sections, want 7", len(parts))
	}
	d, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("core: bad packed dimensionality %q", parts[0])
	}
	mt, err := ParseMatrixType(parts[1])
	if err != nil {
		return nil, err
	}
	// L carries one value per dimension; counting them before allocating
	// keeps a forged d from sizing the d×d state.
	if got := entries(parts[3]); got != d {
		return nil, fmt.Errorf("core: L: got %d entries, want %d", got, d)
	}
	out, err := NewNLQ(d, mt)
	if err != nil {
		return nil, err
	}
	if out.N, err = fastfloat.Parse(parts[2]); err != nil {
		return nil, fmt.Errorf("core: bad packed n %q", parts[2])
	}
	if err := unpackVecInto(parts[3], out.L); err != nil {
		return nil, fmt.Errorf("core: L: %w", err)
	}
	q, n := parts[4], entries(parts[4])
	switch mt {
	case Diagonal:
		if n != d {
			return nil, fmt.Errorf("core: diagonal Q has %d entries, want %d", n, d)
		}
		for a := 0; a < d; a++ {
			if out.Q[a*d+a], q, err = nextEntry(q); err != nil {
				return nil, fmt.Errorf("core: Q: %w", err)
			}
		}
	case Triangular:
		if n != d*(d+1)/2 {
			return nil, fmt.Errorf("core: triangular Q has %d entries, want %d", n, d*(d+1)/2)
		}
		for a := 0; a < d; a++ {
			for c := 0; c <= a; c++ {
				if out.Q[a*d+c], q, err = nextEntry(q); err != nil {
					return nil, fmt.Errorf("core: Q: %w", err)
				}
			}
		}
	case Full:
		if n != d*d {
			return nil, fmt.Errorf("core: full Q has %d entries, want %d", n, d*d)
		}
		if err := unpackVecInto(q, out.Q); err != nil {
			return nil, fmt.Errorf("core: Q: %w", err)
		}
	}
	if err := unpackVecInto(parts[5], out.Min); err != nil {
		return nil, fmt.Errorf("core: min: %w", err)
	}
	if err := unpackVecInto(parts[6], out.Max); err != nil {
		return nil, fmt.Errorf("core: max: %w", err)
	}
	return out, nil
}

func formatF(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }

func packVec(b *strings.Builder, v []float64) {
	for i, f := range v {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(formatF(f))
	}
}

// entries counts the '|'-separated entries of a packed vector; "" has
// none.
func entries(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, "|") + 1
}

// nextEntry parses the first entry of a packed vector and returns it
// with the entries after it.
func nextEntry(s string) (float64, string, error) {
	tok, rest, _ := strings.Cut(s, "|")
	f, err := fastfloat.Parse(tok)
	if err != nil {
		return 0, "", fmt.Errorf("bad float %q", tok)
	}
	return f, rest, nil
}

// unpackVecInto parses a packed vector of exactly len(dst) entries into
// dst, in place.
func unpackVecInto(s string, dst []float64) error {
	if n := entries(s); n != len(dst) {
		return fmt.Errorf("got %d entries, want %d", n, len(dst))
	}
	var err error
	for i := range dst {
		if dst[i], s, err = nextEntry(s); err != nil {
			return err
		}
	}
	return nil
}
