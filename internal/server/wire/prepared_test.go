package wire

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/engine/sqltypes"
)

func TestPrepareRoundTrip(t *testing.T) {
	sql := "SELECT a FROM t WHERE b = ?"
	got, err := DecodePrepare(EncodePrepare(sql))
	if err != nil || got != sql {
		t.Fatalf("DecodePrepare = %q, %v", got, err)
	}
}

func TestPreparedRoundTrip(t *testing.T) {
	for _, pi := range []PreparedInfo{
		{Handle: 1, NumParams: 0},
		{Handle: math.MaxInt64, NumParams: 32},
		{Handle: 0, NumParams: 1},
	} {
		got, err := DecodePrepared(EncodePrepared(pi))
		if err != nil || got != pi {
			t.Fatalf("DecodePrepared(%+v) = %+v, %v", pi, got, err)
		}
	}
}

func TestExecPreparedRoundTrip(t *testing.T) {
	args := []sqltypes.Value{
		sqltypes.NewBigInt(42),
		sqltypes.NewDouble(1.5),
		sqltypes.NewVarChar("x"),
		sqltypes.NewBool(true),
		sqltypes.Null,
	}
	p, err := EncodeExecPrepared(7, args, TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	h, got, _, err := DecodeExecPrepared(p)
	if err != nil || h != 7 {
		t.Fatalf("handle %d err %v", h, err)
	}
	if len(got) != len(args) {
		t.Fatalf("got %d args, want %d", len(got), len(args))
	}
	for i := range args {
		if got[i].Type() != args[i].Type() || got[i].String() != args[i].String() {
			t.Fatalf("arg %d: got %v, want %v", i, got[i], args[i])
		}
	}
	// Zero args is a legitimate execute.
	p, err = EncodeExecPrepared(3, nil, TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if h, got, _, err := DecodeExecPrepared(p); err != nil || h != 3 || len(got) != 0 {
		t.Fatalf("empty execute: %d %v %v", h, got, err)
	}
}

func TestClosePreparedRoundTrip(t *testing.T) {
	h, err := DecodeClosePrepared(EncodeClosePrepared(99))
	if err != nil || h != 99 {
		t.Fatalf("DecodeClosePrepared = %d, %v", h, err)
	}
}

// Truncating a valid payload at every byte boundary must produce an
// error (or, for string-ish frames, a shorter valid decode) — never a
// panic or an over-read.
func TestPreparedFramesTruncated(t *testing.T) {
	ep, err := EncodeExecPrepared(7, []sqltypes.Value{sqltypes.NewBigInt(1), sqltypes.NewVarChar("abc")}, TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		EncodePrepared(PreparedInfo{Handle: 5, NumParams: 2}),
		ep,
		EncodeClosePrepared(12),
	}
	for _, full := range payloads {
		for cut := 0; cut < len(full); cut++ {
			p := full[:cut]
			DecodePrepared(p)
			DecodeExecPrepared(p)
			DecodeClosePrepared(p)
		}
	}
}

// A forged argument count must be rejected before any allocation
// trusts it: a 13-byte frame must not demand a multi-gigabyte slice.
func TestDecodeExecPreparedRejectsForgedCount(t *testing.T) {
	for _, n := range []uint32{math.MaxUint32, 1 << 30, 1 << 16} {
		p := binary.LittleEndian.AppendUint64(nil, 7)
		p = binary.LittleEndian.AppendUint32(p, n)
		if _, _, _, err := DecodeExecPrepared(p); err == nil {
			t.Errorf("DecodeExecPrepared accepted forged count %d with no payload", n)
		}
	}
}

func TestDecodePreparedRejectsForgedNumParams(t *testing.T) {
	p := binary.LittleEndian.AppendUint64(nil, 1)
	p = binary.LittleEndian.AppendUint32(p, math.MaxUint32)
	if _, err := DecodePrepared(p); err == nil {
		t.Error("DecodePrepared accepted an implausible param count")
	}
}

// Trailing garbage after a complete frame body is a protocol error,
// not silently ignored — it would mean the peer and we disagree about
// framing.
func TestPreparedFramesRejectTrailingBytes(t *testing.T) {
	if _, err := DecodeClosePrepared(append(EncodeClosePrepared(1), 0xFF)); err == nil {
		t.Error("DecodeClosePrepared accepted trailing bytes")
	}
	if _, err := DecodePrepared(append(EncodePrepared(PreparedInfo{Handle: 1}), 0xFF)); err == nil {
		t.Error("DecodePrepared accepted trailing bytes")
	}
	ep, err := EncodeExecPrepared(1, nil, TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeExecPrepared(append(ep, 0xFF)); err == nil {
		t.Error("DecodeExecPrepared accepted trailing bytes")
	}
}

// FuzzDecodePreparedFrames throws arbitrary bytes at the prepared-
// statement decoders: error or succeed, never panic, and a successful
// ExecPrepared decode must re-encode.
func FuzzDecodePreparedFrames(f *testing.F) {
	ep, _ := EncodeExecPrepared(9, []sqltypes.Value{sqltypes.NewDouble(2.5), sqltypes.Null}, testHeader())
	f.Add(EncodePrepared(PreparedInfo{Handle: 3, NumParams: 1}))
	f.Add(ep)
	f.Add(EncodeClosePrepared(4))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		DecodePrepare(data)
		DecodePrepared(data)
		DecodeClosePrepared(data)
		if h, args, th, err := DecodeExecPrepared(data); err == nil {
			if _, err := EncodeExecPrepared(h, args, th); err != nil {
				t.Fatalf("decoded exec-prepared failed to re-encode: %v", err)
			}
		}
	})
}
