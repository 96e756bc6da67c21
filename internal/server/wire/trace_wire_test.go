package wire

import (
	"bytes"
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
		{}, // the ClosePrepared acknowledgement: empty, but still present
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

func TestStatementRoundTrip(t *testing.T) {
	th := testHeader()
	sql := "SELECT sum(v) FROM x"

	p := EncodeStatement(sql, th)
	gotSQL, gotTH, err := DecodeStatement(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotSQL != sql || gotTH != th {
		t.Fatalf("round trip: sql=%q th=%+v", gotSQL, gotTH)
	}

	// A client with no trace context sends the zero header, same size.
	p0 := EncodeStatement(sql, TraceHeader{})
	if len(p0) != len(p) {
		t.Fatalf("zero header changes the payload size: %d vs %d", len(p0), len(p))
	}
	if _, gotTH, err = DecodeStatement(p0); err != nil || gotTH != (TraceHeader{}) {
		t.Fatalf("zero header decode: th=%+v err=%v", gotTH, err)
	}

	// A missing, truncated or padded header is a protocol error.
	for _, bad := range [][]byte{AppendString(nil, sql), p[:len(p)-1], append(append([]byte(nil), p...), 0)} {
		if _, _, err := DecodeStatement(bad); err == nil {
			t.Fatalf("DecodeStatement accepted a %d-byte payload (well-formed is %d)", len(bad), len(p))
		}
	}
}

func TestExecPreparedTraceHeader(t *testing.T) {
	th := testHeader()
	args := []sqltypes.Value{sqltypes.NewBigInt(9), sqltypes.NewVarChar("k")}

	p, err := EncodeExecPrepared(42, args, th)
	if err != nil {
		t.Fatal(err)
	}
	h, gotArgs, gotTH, err := DecodeExecPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if h != 42 || len(gotArgs) != 2 || gotTH != th {
		t.Fatalf("round trip: h=%d args=%v th=%+v", h, gotArgs, gotTH)
	}
	if _, _, _, err := DecodeExecPrepared(p[:len(p)-len(th.TraceID)-len(th.SpanID)]); err == nil {
		t.Fatal("DecodeExecPrepared accepted a payload without the trace header")
	}
}

// FuzzDecodeStatement throws arbitrary bytes at the statement decoder:
// it must error or succeed, never panic, and any successful decode must
// re-encode to the bytes it came from.
func FuzzDecodeStatement(f *testing.F) {
	f.Add(EncodeStatement("SELECT 1", TraceHeader{}))
	f.Add(EncodeStatement("SELECT sum(v) FROM x", testHeader()))
	f.Add(EncodeStatement("", TraceHeader{}))
	f.Add(AppendString(nil, "SELECT 1"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		sql, th, err := DecodeStatement(data)
		if err != nil {
			return
		}
		if again := EncodeStatement(sql, th); !bytes.Equal(again, data) {
			t.Fatalf("round trip drift: %x -> %x", data, again)
		}
	})
}
