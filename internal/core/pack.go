package core

import (
	"fmt"
	"strconv"
	"strings"
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
	if got := strings.Count(parts[3], "|") + 1; got != d {
		return nil, fmt.Errorf("core: L: got %d entries, want %d", got, d)
	}
	out, err := NewNLQ(d, mt)
	if err != nil {
		return nil, err
	}
	if out.N, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return nil, fmt.Errorf("core: bad packed n %q", parts[2])
	}
	if err := unpackVecInto(parts[3], out.L); err != nil {
		return nil, fmt.Errorf("core: L: %w", err)
	}
	qvals, err := unpackVec(parts[4])
	if err != nil {
		return nil, fmt.Errorf("core: Q: %w", err)
	}
	switch mt {
	case Diagonal:
		if len(qvals) != d {
			return nil, fmt.Errorf("core: diagonal Q has %d entries, want %d", len(qvals), d)
		}
		for a, v := range qvals {
			out.Q[a*d+a] = v
		}
	case Triangular:
		if len(qvals) != d*(d+1)/2 {
			return nil, fmt.Errorf("core: triangular Q has %d entries, want %d", len(qvals), d*(d+1)/2)
		}
		i := 0
		for a := 0; a < d; a++ {
			for c := 0; c <= a; c++ {
				out.Q[a*d+c] = qvals[i]
				i++
			}
		}
	case Full:
		if len(qvals) != d*d {
			return nil, fmt.Errorf("core: full Q has %d entries, want %d", len(qvals), d*d)
		}
		copy(out.Q, qvals)
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

func unpackVec(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", p)
		}
		out[i] = f
	}
	return out, nil
}

func unpackVecInto(s string, dst []float64) error {
	v, err := unpackVec(s)
	if err != nil {
		return err
	}
	if len(v) != len(dst) {
		return fmt.Errorf("got %d entries, want %d", len(v), len(dst))
	}
	copy(dst, v)
	return nil
}
