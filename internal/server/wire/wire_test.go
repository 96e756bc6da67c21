package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for _, p := range payloads {
		var buf bytes.Buffer
		wn, err := WriteFrame(&buf, MsgQuery, p)
		if err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		if wn != buf.Len() {
			t.Fatalf("WriteFrame reported %d bytes, wrote %d", wn, buf.Len())
		}
		f, rn, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if rn != wn {
			t.Fatalf("ReadFrame consumed %d bytes, frame was %d", rn, wn)
		}
		if f.Type != MsgQuery || !bytes.Equal(f.Payload, p) {
			t.Fatalf("round trip mismatch: %v", f)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if _, err := WriteFrame(io.Discard, MsgBatch, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted an oversized payload")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, MsgBatch})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame accepted an oversized length")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("ReadFrame accepted a frame truncated to %d/%d bytes", cut, len(full))
		}
	}
}

// cycle reads its frames over and over, allocating nothing.
type cycle struct {
	b   []byte
	off int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := copy(p, c.b[c.off:])
	c.off = (c.off + n) % len(c.b)
	return n, nil
}

// TestFrameAllocs pins a Conn's per-frame heap cost: buffering and
// sending a frame allocates nothing, and receiving one allocates only
// its payload.
func TestFrameAllocs(t *testing.T) {
	payload := []byte("a frame's payload")
	var stream bytes.Buffer
	if _, err := WriteFrame(&stream, MsgBatch, payload); err != nil {
		t.Fatal(err)
	}
	c := &Conn{R: bufio.NewReader(&cycle{b: stream.Bytes()}), W: bufio.NewWriter(io.Discard)}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Buffer(MsgBatch, payload); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(MsgDone, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Buffer+Send allocates %v times a frame pair, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		f, err := c.Recv()
		if err != nil || f.Type != MsgBatch || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("Recv = %v, %v", f, err)
		}
	}); n != 1 {
		t.Errorf("Recv allocates %v times a frame, want 1 (the payload)", n)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{{Version: 1, User: "alice"}, {Version: 7, User: ""}, {Version: 1, User: strings.Repeat("u", 300)}} {
		got, err := DecodeHello(EncodeHello(h))
		if err != nil {
			t.Fatalf("DecodeHello(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("hello round trip: got %+v want %+v", got, h)
		}
	}
	if _, err := DecodeHello([]byte("GET / HTTP/1.1\r\n")); err == nil {
		t.Fatal("DecodeHello accepted an HTTP request")
	}
}

func TestWelcomeDoneErrorRoundTrip(t *testing.T) {
	w := Welcome{SessionID: 42, Server: "twmd/1", Proto: ProtocolVersion}
	gw, err := DecodeWelcome(EncodeWelcome(w))
	if err != nil || gw != w {
		t.Fatalf("welcome round trip: %+v, %v", gw, err)
	}
	d := Done{Affected: 12, Rows: 99, StatsJSON: `{"rows_scanned":5}`}
	gd, err := DecodeDone(EncodeDone(d))
	if err != nil || gd != d {
		t.Fatalf("done round trip: %+v, %v", gd, err)
	}
	e := &Error{Code: CodeBusy, Message: "50 statements in flight"}
	ge, err := DecodeError(EncodeError(e))
	if err != nil || *ge != *e {
		t.Fatalf("error round trip: %+v, %v", ge, err)
	}
	if !IsBusy(ge) {
		t.Fatal("IsBusy(busy error) = false")
	}
	if IsBusy(&Error{Code: CodeInternal}) {
		t.Fatal("IsBusy(internal error) = true")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := sqltypes.MustSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt},
		sqltypes.Column{Name: "x", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "label", Type: sqltypes.TypeVarChar},
	)
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatalf("DecodeSchema: %v", err)
	}
	if got.String() != s.String() {
		t.Fatalf("schema round trip: got %s want %s", got, s)
	}
}

// randomValue draws one value over all encodable types.
func randomValue(rng *rand.Rand) sqltypes.Value {
	switch rng.Intn(5) {
	case 0:
		return sqltypes.Null
	case 1:
		// Include tricky doubles: ±Inf, NaN payloads survive bit-exact.
		switch rng.Intn(5) {
		case 0:
			return sqltypes.NewDouble(math.Inf(1))
		case 1:
			return sqltypes.NewDouble(math.Inf(-1))
		case 2:
			return sqltypes.NewDouble(0)
		default:
			return sqltypes.NewDouble(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15)))
		}
	case 2:
		return sqltypes.NewBigInt(rng.Int63() - rng.Int63())
	case 3:
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		return sqltypes.NewVarChar(string(b))
	default:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	}
}

// TestBatchRoundTripProperty drives random batches through the codec
// and requires value-exact reconstruction.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	for trial := 0; trial < 200; trial++ {
		arity := 1 + rng.Intn(8)
		rows := make([]sqltypes.Row, rng.Intn(20))
		for i := range rows {
			row := make(sqltypes.Row, arity)
			for j := range row {
				row[j] = randomValue(rng)
			}
			rows[i] = row
		}
		p, err := EncodeBatch(rows)
		if err != nil {
			t.Fatalf("EncodeBatch: %v", err)
		}
		got, err := DecodeBatch(p)
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		if len(got) != len(rows) {
			t.Fatalf("trial %d: %d rows decoded, want %d", trial, len(got), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				a, b := rows[i][j], got[i][j]
				if a.Type() != b.Type() {
					t.Fatalf("trial %d row %d col %d: type %v != %v", trial, i, j, a.Type(), b.Type())
				}
				// Bit-exact for doubles (NaN != NaN under Compare).
				af, aok := a.Float()
				bf, bok := b.Float()
				if aok != bok || (aok && math.Float64bits(af) != math.Float64bits(bf)) {
					t.Fatalf("trial %d row %d col %d: %v != %v", trial, i, j, a, b)
				}
				if a.Str() != b.Str() {
					t.Fatalf("trial %d row %d col %d: %q != %q", trial, i, j, a.Str(), b.Str())
				}
			}
		}
	}
}

// TestDecodeBatchRejectsForgedHeaders hand-crafts batch headers whose
// row counts are implausible for the payload: a zero arity with a huge
// row count (any n × 0 = 0), and counts whose product overflows int64
// to a negative value. Both must be rejected before the row-slice
// allocation trusts n, or a 12-byte frame can demand ~100GB.
func TestDecodeBatchRejectsForgedHeaders(t *testing.T) {
	forged := []struct{ n, arity uint32 }{
		{math.MaxUint32, 0},              // product 0 regardless of n
		{1 << 20, 0},                     // ditto
		{math.MaxUint32, math.MaxUint32}, // int64 product wraps negative
		{1 << 31, 1 << 31},               // large positive product
		{1 << 16, 1 << 16},               // plausible-looking, no payload
	}
	for _, h := range forged {
		p := binary.LittleEndian.AppendUint32(nil, h.n)
		p = binary.LittleEndian.AppendUint32(p, h.arity)
		if _, err := DecodeBatch(p); err == nil {
			t.Errorf("DecodeBatch accepted forged header n=%d arity=%d", h.n, h.arity)
		}
	}
	// The legitimate empty batch (n=0, arity=0) still decodes.
	p, err := EncodeBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := DecodeBatch(p); err != nil || len(rows) != 0 {
		t.Fatalf("empty batch: %d rows, err %v", len(rows), err)
	}
	// Zero-arity rows are unencodable (the decoder cannot tell them
	// from a forged header).
	if _, err := EncodeBatch([]sqltypes.Row{{}}); err == nil {
		t.Fatal("EncodeBatch accepted zero-arity rows")
	}
}

// FuzzDecodeFrameStream throws arbitrary bytes at the frame reader and
// payload decoders: they must error or succeed, never panic, and any
// successfully decoded batch must re-encode.
func FuzzDecodeFrameStream(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, MsgHello, EncodeHello(Hello{Version: 1, User: "u"}))
	WriteFrame(&seed, MsgDone, EncodeDone(Done{Affected: 3}))
	b, _ := EncodeBatch([]sqltypes.Row{{sqltypes.NewDouble(1.5), sqltypes.NewVarChar("a")}})
	WriteFrame(&seed, MsgBatch, b)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, MsgQuery, 1, 0, 0, 0, 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, _, err := ReadFrame(r)
			if err != nil {
				return
			}
			// Decode against every parser: none may panic.
			DecodeHello(fr.Payload)
			DecodeWelcome(fr.Payload)
			DecodeStatement(fr.Payload)
			DecodeSchema(fr.Payload)
			DecodeDone(fr.Payload)
			DecodeError(fr.Payload)
			if rows, err := DecodeBatch(fr.Payload); err == nil {
				if _, err := EncodeBatch(rows); err != nil {
					t.Fatalf("decoded batch failed to re-encode: %v", err)
				}
			}
		}
	})
}

func TestConnSendRecv(t *testing.T) {
	var buf bytes.Buffer
	c := &Conn{R: &buf, W: bufio.NewWriter(&buf)}
	if err := c.Send(MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgPing {
		t.Fatalf("got frame type %#x, want ping", f.Type)
	}
	if c.BytesWritten.Load() != 5 || c.BytesRead.Load() != 5 {
		t.Fatalf("byte accounting: wrote %d read %d, want 5/5", c.BytesWritten.Load(), c.BytesRead.Load())
	}
}
