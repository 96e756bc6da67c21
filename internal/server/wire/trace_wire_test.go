package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/engine/sqltypes"
)

func testHeader() TraceHeader {
	var th TraceHeader
	for i := range th.TraceID {
		th.TraceID[i] = byte(i + 1)
	}
	for i := range th.SpanID {
		th.SpanID[i] = byte(0xA0 + i)
	}
	return th
}

func TestDoneTraceID(t *testing.T) {
	for _, d := range []Done{
		{Rows: 3, StatsJSON: "{}", TraceID: "0102030405060708090a0b0c0d0e0f10"},
		{}, // an empty Done still carries the field
	} {
		p := EncodeDone(d)
		got, err := DecodeDone(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("done round trip: got %+v want %+v", got, d)
		}
		// The trace id is not optional: a payload that stops after the
		// stats string is truncated, not an older dialect.
		if _, err := DecodeDone(p[:len(p)-4-len(d.TraceID)]); err == nil {
			t.Fatal("DecodeDone accepted a payload without the trace id field")
		}
	}
}

// everyTag is one argument of every value tag the codec knows.
func everyTag() []sqltypes.Value {
	return []sqltypes.Value{
		sqltypes.NewBigInt(42),
		sqltypes.NewDouble(-1.5),
		sqltypes.NewVarChar("x"),
		sqltypes.NewBool(true),
		sqltypes.NewBool(false),
		sqltypes.Null,
	}
}

func encodeStatement(t testing.TB, st Statement) []byte {
	t.Helper()
	p, err := EncodeStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameStatement compares two statements, arguments by type and bits.
func sameStatement(a, b Statement) bool {
	if a.SQL != b.SQL || a.Trace != b.Trace || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		x, y := a.Args[i], b.Args[i]
		xf, _ := x.Float()
		yf, _ := y.Float()
		if x.Type() != y.Type() || x.String() != y.String() || math.Float64bits(xf) != math.Float64bits(yf) {
			return false
		}
	}
	return true
}

func TestStatementRoundTrip(t *testing.T) {
	th := testHeader()
	st := Statement{SQL: "SELECT sum(v) FROM x", Trace: th}
	p := encodeStatement(t, st)
	got, err := DecodeStatement(p)
	if err != nil || !sameStatement(got, st) {
		t.Fatalf("round trip: got %+v, %v; want %+v", got, err, st)
	}

	// A client with no trace context sends the zero header, same size.
	p0 := encodeStatement(t, Statement{SQL: st.SQL})
	if len(p0) != len(p) {
		t.Fatalf("zero header changes the payload size: %d vs %d", len(p0), len(p))
	}
	if got, err = DecodeStatement(p0); err != nil || got.Trace != (TraceHeader{}) {
		t.Fatalf("zero header decode: th=%+v err=%v", got.Trace, err)
	}

	// Every truncation — inside the text, the argument count or the
	// header — and any padding is a protocol error.
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeStatement(p[:cut]); err == nil {
			t.Fatalf("DecodeStatement accepted %d of %d bytes", cut, len(p))
		}
	}
	if _, err := DecodeStatement(append(append([]byte(nil), p...), 0)); err == nil {
		t.Fatal("DecodeStatement accepted a padded payload")
	}
}

// The tests below keep the names of the ExecPrepared frame's tests: the
// argument list that frame carried now travels in the statement frame,
// and these checks follow it there.

// withArgs is a statement frame carrying one argument of every tag.
func withArgs(th TraceHeader) Statement {
	return Statement{SQL: "SELECT a FROM t WHERE b = ? AND c = ?", Args: everyTag(), Trace: th}
}

func TestExecPreparedRoundTrip(t *testing.T) {
	st := withArgs(TraceHeader{})
	if got, err := DecodeStatement(encodeStatement(t, st)); err != nil || !sameStatement(got, st) {
		t.Fatalf("round trip: got %+v, %v; want %+v", got, err, st)
	}
	// Zero args is a legitimate execute.
	st = Statement{SQL: "SELECT 1"}
	if got, err := DecodeStatement(encodeStatement(t, st)); err != nil || len(got.Args) != 0 || got.SQL != st.SQL {
		t.Fatalf("no arguments: %+v, %v", got, err)
	}
}

func TestExecPreparedTraceHeader(t *testing.T) {
	th := testHeader()
	st := withArgs(th)
	p := encodeStatement(t, st)
	got, err := DecodeStatement(p)
	if err != nil || !sameStatement(got, st) || got.Trace != th {
		t.Fatalf("round trip: got %+v, %v; want %+v", got, err, st)
	}
	if _, err := DecodeStatement(p[:len(p)-len(th.TraceID)-len(th.SpanID)]); err == nil {
		t.Fatal("DecodeStatement accepted arguments without the trace header")
	}
}

// Truncating a statement frame with arguments at every byte boundary —
// inside the text, the argument list or the header — must be an error,
// never a panic, an over-read or a shorter valid decode.
func TestPreparedFramesTruncated(t *testing.T) {
	p := encodeStatement(t, withArgs(testHeader()))
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeStatement(p[:cut]); err == nil {
			t.Fatalf("DecodeStatement accepted %d of %d bytes", cut, len(p))
		}
	}
}

// Trailing garbage after a complete frame body is a protocol error,
// not silently ignored — it would mean the peer and we disagree about
// framing.
func TestPreparedFramesRejectTrailingBytes(t *testing.T) {
	for _, st := range []Statement{withArgs(testHeader()), {SQL: "SELECT ?", Args: []sqltypes.Value{sqltypes.Null}}} {
		if _, err := DecodeStatement(append(encodeStatement(t, st), 0xFF)); err == nil {
			t.Errorf("DecodeStatement accepted trailing bytes after %q", st.SQL)
		}
	}
}

// A forged argument count must be rejected before any allocation
// trusts it, and a bool is exactly 0 or 1.
func TestDecodeStatementRejectsForgedArgs(t *testing.T) {
	for _, n := range []uint32{math.MaxUint32, 1 << 30, 1 << 16, 1} {
		p := binary.LittleEndian.AppendUint32(AppendString(nil, "SELECT ?"), n)
		if _, err := DecodeStatement(p); err == nil {
			t.Errorf("DecodeStatement accepted forged argument count %d with no values", n)
		}
	}
	p := encodeStatement(t, Statement{SQL: "SELECT ?", Args: []sqltypes.Value{sqltypes.NewBool(true)}})
	p[len("SELECT ?")+4+4+1] = 2
	if _, err := DecodeStatement(p); err == nil {
		t.Error("DecodeStatement accepted bool byte 2")
	}
}

// FuzzDecodeStatement throws arbitrary bytes at the statement decoder:
// it must error or succeed, never panic, and any successful decode must
// re-encode to the bytes it came from and decode again to itself.
func FuzzDecodeStatement(f *testing.F) {
	f.Add(encodeStatement(f, Statement{SQL: "SELECT 1"}))
	f.Add(encodeStatement(f, Statement{SQL: "SELECT sum(v) FROM x", Trace: testHeader()}))
	f.Add(encodeStatement(f, Statement{}))
	f.Add(AppendString(nil, "SELECT 1"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, v := range everyTag() {
		f.Add(encodeStatement(f, Statement{SQL: "SELECT ?", Args: []sqltypes.Value{v}, Trace: testHeader()}))
	}
	all := encodeStatement(f, Statement{SQL: "SELECT ?, ?, ?, ?, ?, ?", Args: everyTag()})
	f.Add(all)
	f.Add(all[:len("SELECT ?, ?, ?, ?, ?, ?")+4+4+1+3]) // cut inside the first value
	f.Add(binary.LittleEndian.AppendUint32(AppendString(nil, "SELECT ?"), 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStatement(data)
		if err != nil {
			return
		}
		again, err := EncodeStatement(st)
		if err != nil {
			t.Fatalf("decoded statement failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("round trip drift: %x -> %x", data, again)
		}
		if st2, err := DecodeStatement(again); err != nil || !sameStatement(st2, st) {
			t.Fatalf("decode → encode → decode unstable: %+v -> %+v, %v", st, st2, err)
		}
	})
}
