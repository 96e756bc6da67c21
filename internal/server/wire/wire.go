// Package wire defines the engine's client/server wire protocol: a
// length-prefixed binary framing with a small fixed message vocabulary.
// The paper's architecture keeps the heavy scan inside the DBMS and
// ships only queries in and small result sets out; this protocol is
// that boundary. Every frame is
//
//	u32 payload length (little-endian) | u8 message type | payload
//
// Payload scalars are little-endian; strings are a u32 length followed
// by raw bytes. Result rows reuse the storage layer's value tagging
// (1-byte type tag + payload per value) so a row costs the same bytes
// on the wire as it does on disk.
//
// A conversation is strictly request/response: the client sends Hello
// and reads Welcome, then loops sending one request and reading its
// response (Batch* Schema? Done | Error for Query/Exec, SummaryResult or
// Pong for the others). Close/Goodbye end the session. Clients must not
// pipeline; the server reads ahead only to detect disconnects.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/engine/sqltypes"
)

// ProtocolVersion is the one protocol version this build speaks. The
// client states it in Hello, the server answers any other value with
// the typed protocol error and echoes it in Welcome; it moves whenever
// a frame's layout does.
const ProtocolVersion = 5

// Magic opens every Hello payload, so a server can fail fast when an
// HTTP client or a stray port scan connects.
const Magic = "TWM1"

// MaxFrame bounds a single frame's payload; larger frames are a
// protocol error on both ends (a result set streams as many batches,
// so no legitimate frame approaches this).
const MaxFrame = 16 << 20

// Message types. Client-originated types have the high bit clear,
// server-originated types have it set; this makes misdirected frames
// fail loudly instead of being misparsed. 0x06–0x08 and 0x88 are
// retired (protocol 4's prepared-handle frames): do not reuse them.
const (
	MsgHello   byte = 0x01 // magic, proto version, user
	MsgQuery   byte = 0x02 // one SQL statement and its `?` arguments; rows stream back
	MsgExec    byte = 0x03 // SQL script; only the last result returns
	MsgPing    byte = 0x04 // liveness/health check
	MsgClose   byte = 0x05 // graceful session end
	MsgSummary byte = 0x09 // n/L/Q summary request

	MsgWelcome       byte = 0x81 // session id, server version
	MsgSchema        byte = 0x82 // result schema (precedes batches)
	MsgBatch         byte = 0x83 // a run of result rows
	MsgDone          byte = 0x84 // statement finished: affected count, stats JSON
	MsgError         byte = 0x85 // typed error: code + message
	MsgPong          byte = 0x86 // ping reply
	MsgGoodbye       byte = 0x87 // close acknowledgement
	MsgSummaryResult byte = 0x89 // summary reply: cache hit flag + packed NLQ
)

// Error codes carried by MsgError frames. The code survives the wire
// so clients can react to the kind of failure, not a string match.
const (
	// CodeBusy is admission-control overflow: the server is at its
	// concurrent-statement limit and its wait queue is full. Fail-fast:
	// the statement was never started and is safe to retry elsewhere.
	CodeBusy = "busy"
	// CodeSema is a semantic-analysis rejection; the message carries
	// the full multi-line "sema: line:col:" diagnostics.
	CodeSema = "sema"
	// CodeParse is a SQL syntax error.
	CodeParse = "parse"
	// CodeCancelled reports a statement stopped by cancellation
	// (client disconnect or server shutdown).
	CodeCancelled = "cancelled"
	// CodeShutdown reports the server is draining and takes no new work.
	CodeShutdown = "shutdown"
	// CodeProtocol reports a malformed or unexpected frame.
	CodeProtocol = "protocol"
	// CodeShardUnavailable reports that a coordinator could not reach
	// (or has marked down) the shard owning part of the statement's
	// data. The statement observed at most a prefix of the cluster; the
	// client should surface the failure rather than retry blindly —
	// the coordinator's prober re-admits the shard when it recovers.
	CodeShardUnavailable = "shard_unavailable"
	// CodeInternal is any other execution error.
	CodeInternal = "internal"
)

// Error is the typed error a MsgError frame carries.
type Error struct {
	Code    string
	Message string
}

// Error renders as "code: message"; the sema multi-error keeps its
// line structure so shell users see positioned diagnostics.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// IsBusy reports whether err is (or wraps) an admission-control
// rejection — the typed "server busy" fail-fast error.
func IsBusy(err error) bool {
	var we *Error
	return errors.As(err, &we) && we.Code == CodeBusy
}

// Frame is one decoded protocol frame.
type Frame struct {
	Type    byte
	Payload []byte
}

// WriteFrame writes one frame to w. It returns the total bytes written
// so both ends can maintain their byte counters.
func WriteFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	return writeFrame(w, new([5]byte), typ, payload)
}

// writeFrame is WriteFrame with the caller's header scratch: passed to
// w.Write it escapes, so a Conn lends its own instead of allocating one
// per frame.
func writeFrame(w io.Writer, hdr *[5]byte, typ byte, payload []byte) (int, error) {
	if len(payload) > MaxFrame {
		return 0, fmt.Errorf("wire: frame payload %d exceeds %d bytes", len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return len(hdr), err
		}
	}
	return len(hdr) + len(payload), nil
}

// ReadFrame reads one frame from r, rejecting oversized payloads
// before allocating for them.
func ReadFrame(r io.Reader) (Frame, int, error) {
	return readFrame(r, new([5]byte))
}

// readFrame is ReadFrame with the caller's header scratch.
func readFrame(r io.Reader, hdr *[5]byte) (Frame, int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return Frame{}, 0, fmt.Errorf("wire: frame payload %d exceeds %d bytes", n, MaxFrame)
	}
	f := Frame{Type: hdr[4]}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, 0, fmt.Errorf("wire: truncated frame: %w", err)
		}
	}
	return f, len(hdr) + int(n), nil
}

// Conn wraps a stream with buffered frame I/O and byte accounting.
// It is not safe for concurrent use on the same direction; the
// protocol's request/response discipline keeps each direction single-
// threaded. The byte counters are atomic because the server reads one
// direction from a dedicated goroutine while flushing both counters
// from the statement handler.
type Conn struct {
	R io.Reader
	W *bufio.Writer

	// wHdr and rHdr are each direction's frame-header scratch.
	wHdr, rHdr [5]byte

	// BytesRead and BytesWritten accumulate frame bytes, for the
	// engine_server_bytes_* metrics.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// NewConn wraps rw in buffered frame I/O.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{R: bufio.NewReaderSize(rw, 1<<16), W: bufio.NewWriterSize(rw, 1<<16)}
}

// Send writes one frame and flushes it, together with any frames
// buffered before it.
func (c *Conn) Send(typ byte, payload []byte) error {
	if err := c.Buffer(typ, payload); err != nil {
		return err
	}
	return c.W.Flush()
}

// Buffer writes one frame into the write buffer without flushing it:
// it reaches the stream with the next Send, or earlier if the buffer
// fills. A reply of several frames buffers all but its last and Sends
// that, so the frames leave in one write.
func (c *Conn) Buffer(typ byte, payload []byte) error {
	n, err := writeFrame(c.W, &c.wHdr, typ, payload)
	c.BytesWritten.Add(int64(n))
	return err
}

// Recv reads the next frame.
func (c *Conn) Recv() (Frame, error) {
	f, n, err := readFrame(c.R, &c.rHdr)
	c.BytesRead.Add(int64(n))
	return f, err
}

// --- payload builders and parsers ---

// A payload buffer with append-style encoders. Strings longer than
// MaxFrame are impossible (the frame bound catches them).

// AppendString appends a u32-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendUint64 appends a little-endian u64.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// reader consumes a payload sequentially.
type reader struct {
	b   []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if r.off+n > len(r.b) {
		return nil, fmt.Errorf("wire: truncated payload (want %d bytes at offset %d of %d)", n, r.off, len(r.b))
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) uint32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) string() (string, error) {
	n, err := r.uint32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// Hello is the client's opening frame.
type Hello struct {
	Version uint32
	User    string
}

// EncodeHello builds a MsgHello payload.
func EncodeHello(h Hello) []byte {
	b := append([]byte(nil), Magic...)
	b = binary.LittleEndian.AppendUint32(b, h.Version)
	return AppendString(b, h.User)
}

// DecodeHello parses a MsgHello payload, verifying the magic.
func DecodeHello(p []byte) (Hello, error) {
	r := &reader{b: p}
	magic, err := r.take(len(Magic))
	if err != nil {
		return Hello{}, err
	}
	if string(magic) != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic %q (not a twmd endpoint?)", magic)
	}
	var h Hello
	if h.Version, err = r.uint32(); err != nil {
		return Hello{}, err
	}
	if h.User, err = r.string(); err != nil {
		return Hello{}, err
	}
	return h, r.done()
}

// Welcome is the server's handshake reply.
type Welcome struct {
	SessionID int64
	Server    string
	// Proto is the protocol version the session speaks.
	Proto uint32
}

// EncodeWelcome builds a MsgWelcome payload.
func EncodeWelcome(w Welcome) []byte {
	b := AppendUint64(nil, uint64(w.SessionID))
	b = AppendString(b, w.Server)
	return binary.LittleEndian.AppendUint32(b, w.Proto)
}

// DecodeWelcome parses a MsgWelcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	r := &reader{b: p}
	id, err := r.uint64()
	if err != nil {
		return Welcome{}, err
	}
	w := Welcome{SessionID: int64(id)}
	if w.Server, err = r.string(); err != nil {
		return Welcome{}, err
	}
	if w.Proto, err = r.uint32(); err != nil {
		return Welcome{}, err
	}
	return w, r.done()
}

// TraceHeader is the trace context that closes every Query and Exec
// payload: the statement's TraceID and the client-side span the
// server's span should parent under. The server adopts the
// TraceID so the client and server halves of the trace share one
// identity; a zero TraceID asks the server to start a trace of its own.
type TraceHeader struct {
	TraceID [16]byte
	SpanID  [8]byte
}

func appendTraceHeader(b []byte, th TraceHeader) []byte {
	b = append(b, th.TraceID[:]...)
	return append(b, th.SpanID[:]...)
}

func decodeTraceHeader(r *reader) (TraceHeader, error) {
	var th TraceHeader
	b, err := r.take(len(th.TraceID) + len(th.SpanID))
	if err != nil {
		return th, err
	}
	n := copy(th.TraceID[:], b)
	copy(th.SpanID[:], b[n:])
	return th, nil
}

// Statement is a MsgQuery/MsgExec payload: the SQL text, one value per
// `?` slot (a script carries none) and the trace header.
type Statement struct {
	SQL   string
	Args  []sqltypes.Value
	Trace TraceHeader
}

// EncodeStatement builds a MsgQuery/MsgExec payload: the SQL, the
// argument count, one tagged value per argument (the result-row codec),
// then the trace header.
func EncodeStatement(st Statement) ([]byte, error) {
	b := AppendString(nil, st.SQL)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Args)))
	var err error
	for _, v := range st.Args {
		if b, err = AppendValue(b, v); err != nil {
			return nil, err
		}
	}
	return appendTraceHeader(b, st.Trace), nil
}

// DecodeStatement parses a MsgQuery/MsgExec payload.
func DecodeStatement(p []byte) (Statement, error) {
	r := &reader{b: p}
	var st Statement
	var err error
	if st.SQL, err = r.string(); err != nil {
		return Statement{}, err
	}
	n, err := r.uint32()
	if err != nil {
		return Statement{}, err
	}
	// Every value costs at least its 1-byte tag; reject forged counts
	// before the slice allocation trusts n.
	if uint64(n) > uint64(len(p)-r.off) {
		return Statement{}, fmt.Errorf("wire: implausible argument count %d in %d payload bytes", n, len(p)-r.off)
	}
	if n > 0 {
		st.Args = make([]sqltypes.Value, n)
		for i := range st.Args {
			if st.Args[i], err = decodeValue(r); err != nil {
				return Statement{}, err
			}
		}
	}
	if st.Trace, err = decodeTraceHeader(r); err != nil {
		return Statement{}, err
	}
	return st, r.done()
}

// EncodeSchema builds a MsgSchema payload: column count, then
// name + type tag per column.
func EncodeSchema(s *sqltypes.Schema) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(s.Len()))
	for _, c := range s.Columns {
		b = AppendString(b, c.Name)
		b = append(b, byte(c.Type))
	}
	return b
}

// DecodeSchema parses a MsgSchema payload.
func DecodeSchema(p []byte) (*sqltypes.Schema, error) {
	r := &reader{b: p}
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxFrame/2 {
		return nil, fmt.Errorf("wire: implausible column count %d", n)
	}
	cols := make([]sqltypes.Column, n)
	for i := range cols {
		if cols[i].Name, err = r.string(); err != nil {
			return nil, err
		}
		t, err := r.byte()
		if err != nil {
			return nil, err
		}
		cols[i].Type = sqltypes.Type(t)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return sqltypes.NewSchema(cols...)
}

// Value tags mirror the storage row codec (plus BOOL, which predicates
// can surface in result sets but storage never persists).
const (
	tagNull    byte = 0
	tagDouble  byte = 1
	tagBigInt  byte = 2
	tagVarChar byte = 3
	tagBool    byte = 4
)

// AppendValue appends one value's tagged encoding.
func AppendValue(b []byte, v sqltypes.Value) ([]byte, error) {
	switch v.Type() {
	case sqltypes.TypeNull:
		return append(b, tagNull), nil
	case sqltypes.TypeDouble:
		f, _ := v.Float()
		b = append(b, tagDouble)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(f)), nil
	case sqltypes.TypeBigInt:
		b = append(b, tagBigInt)
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int())), nil
	case sqltypes.TypeVarChar:
		s := v.Str()
		b = append(b, tagVarChar)
		return AppendString(b, s), nil
	case sqltypes.TypeBool:
		b = append(b, tagBool)
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode value of type %v", v.Type())
	}
}

// decodeValue parses one tagged value.
func decodeValue(r *reader) (sqltypes.Value, error) {
	tag, err := r.byte()
	if err != nil {
		return sqltypes.Null, err
	}
	switch tag {
	case tagNull:
		return sqltypes.Null, nil
	case tagDouble:
		u, err := r.uint64()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewDouble(math.Float64frombits(u)), nil
	case tagBigInt:
		u, err := r.uint64()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBigInt(int64(u)), nil
	case tagVarChar:
		s, err := r.string()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewVarChar(s), nil
	case tagBool:
		b, err := r.byte()
		if err != nil {
			return sqltypes.Null, err
		}
		if b > 1 {
			return sqltypes.Null, fmt.Errorf("wire: bad bool byte %d", b)
		}
		return sqltypes.NewBool(b == 1), nil
	default:
		return sqltypes.Null, fmt.Errorf("wire: bad value tag %d", tag)
	}
}

// EncodeBatch builds a MsgBatch payload from rows. Batches are
// self-describing (row count and arity in the header) because the
// streamed execution path — like the in-process QueryStream — learns
// the result schema only when the scan completes, so the Schema frame
// may follow the batches it describes. Rows must share one arity.
func EncodeBatch(rows []sqltypes.Row) ([]byte, error) {
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0])
		if arity == 0 {
			// The decoder rejects n>0 with arity 0 (the header would be
			// indistinguishable from a forged allocation bomb).
			return nil, errors.New("wire: cannot encode zero-arity rows")
		}
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	b = binary.LittleEndian.AppendUint32(b, uint32(arity))
	var err error
	for _, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("wire: ragged batch: row has %d values, batch arity is %d", len(row), arity)
		}
		for _, v := range row {
			if b, err = AppendValue(b, v); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// DecodeBatch parses a MsgBatch payload.
func DecodeBatch(p []byte) ([]sqltypes.Row, error) {
	r := &reader{b: p}
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	arity, err := r.uint32()
	if err != nil {
		return nil, err
	}
	// Every value costs at least its 1-byte tag; reject headers that
	// promise more values than the payload could hold, before the row
	// allocation trusts n. The product of two u32s cannot overflow a
	// u64, and zero-arity rows carry no bytes at all — EncodeBatch
	// never produces them for a non-empty batch, so any n>0 there is a
	// forged header.
	rest := uint64(len(p) - r.off)
	if arity == 0 {
		if n != 0 {
			return nil, fmt.Errorf("wire: implausible batch header (%d rows of zero arity)", n)
		}
	} else if uint64(n)*uint64(arity) > rest {
		return nil, fmt.Errorf("wire: implausible batch header (%d rows × %d cols in %d payload bytes)", n, arity, rest)
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		row := make(sqltypes.Row, arity)
		for j := 0; j < int(arity); j++ {
			if row[j], err = decodeValue(r); err != nil {
				return nil, err
			}
		}
		rows[i] = row
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Done closes a statement's response stream.
type Done struct {
	// Affected is the row count for INSERT-like statements.
	Affected int64
	// Rows is the number of result rows streamed (for client-side
	// verification of complete delivery).
	Rows int64
	// StatsJSON is the executor's exec.Stats marshaled as JSON, empty
	// for statements without a scan.
	StatsJSON string
	// TraceID is the statement's trace identity as the server adopted
	// or assigned it (32 hex digits), echoed so the client can link its
	// roundtrip span to the server-side trace.
	TraceID string
}

// EncodeDone builds a MsgDone payload.
func EncodeDone(d Done) []byte {
	b := AppendUint64(nil, uint64(d.Affected))
	b = AppendUint64(b, uint64(d.Rows))
	b = AppendString(b, d.StatsJSON)
	return AppendString(b, d.TraceID)
}

// DecodeDone parses a MsgDone payload.
func DecodeDone(p []byte) (Done, error) {
	r := &reader{b: p}
	affected, err := r.uint64()
	if err != nil {
		return Done{}, err
	}
	rows, err := r.uint64()
	if err != nil {
		return Done{}, err
	}
	d := Done{Affected: int64(affected), Rows: int64(rows)}
	if d.StatsJSON, err = r.string(); err != nil {
		return Done{}, err
	}
	if d.TraceID, err = r.string(); err != nil {
		return Done{}, err
	}
	return d, r.done()
}

// EncodeError builds a MsgError payload.
func EncodeError(e *Error) []byte {
	b := AppendString(nil, e.Code)
	return AppendString(b, e.Message)
}

// DecodeError parses a MsgError payload.
func DecodeError(p []byte) (*Error, error) {
	r := &reader{b: p}
	code, err := r.string()
	if err != nil {
		return nil, err
	}
	msg, err := r.string()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Error{Code: code, Message: msg}, nil
}

// Summary is the push-down request a coordinator sends a shard:
// compute (or serve from the shard's incremental summary cache) the
// n/L/Q sufficient statistics over the named columns of one local
// table. The reply is a SummaryResult whose packed NLQ merges
// additively with the other shards' partials — the 4-phase aggregate
// protocol's merge step, run across processes instead of goroutines.
type Summary struct {
	Table string
	// Columns are the dimension columns; empty means every DOUBLE
	// column in schema order (the shard resolves the default, so all
	// shards of one table resolve identically).
	Columns []string
	// Matrix is the core.MatrixType ordinal (diagonal/triangular/full).
	Matrix byte
}

// EncodeSummary builds a MsgSummary payload.
func EncodeSummary(s Summary) []byte {
	b := AppendString(nil, s.Table)
	b = append(b, s.Matrix)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Columns)))
	for _, c := range s.Columns {
		b = AppendString(b, c)
	}
	return b
}

// DecodeSummary parses a MsgSummary payload.
func DecodeSummary(p []byte) (Summary, error) {
	r := &reader{b: p}
	var s Summary
	var err error
	if s.Table, err = r.string(); err != nil {
		return Summary{}, err
	}
	if s.Matrix, err = r.byte(); err != nil {
		return Summary{}, err
	}
	n, err := r.uint32()
	if err != nil {
		return Summary{}, err
	}
	// Every column costs at least its 4-byte length prefix; reject
	// forged counts before the slice allocation trusts n.
	if uint64(n)*4 > uint64(len(p)-r.off) {
		return Summary{}, fmt.Errorf("wire: implausible column count %d in %d payload bytes", n, len(p)-r.off)
	}
	if n > 0 {
		s.Columns = make([]string, n)
		for i := range s.Columns {
			if s.Columns[i], err = r.string(); err != nil {
				return Summary{}, err
			}
		}
	}
	return s, r.done()
}

// SummaryResult is the shard's MsgSummaryResult reply.
type SummaryResult struct {
	// Hit reports whether the shard's summary cache served the request
	// without a scan (the coordinator aggregates this into its own
	// cold/warm accounting).
	Hit bool
	// Packed is the core.NLQ Pack() encoding of the shard-local
	// partial; empty when the shard's slice of the table has no rows.
	Packed string
}

// EncodeSummaryResult builds a MsgSummaryResult payload.
func EncodeSummaryResult(sr SummaryResult) []byte {
	var hit byte
	if sr.Hit {
		hit = 1
	}
	b := append([]byte(nil), hit)
	return AppendString(b, sr.Packed)
}

// DecodeSummaryResult parses a MsgSummaryResult payload.
func DecodeSummaryResult(p []byte) (SummaryResult, error) {
	r := &reader{b: p}
	hit, err := r.byte()
	if err != nil {
		return SummaryResult{}, err
	}
	if hit > 1 {
		return SummaryResult{}, fmt.Errorf("wire: bad summary hit flag %d", hit)
	}
	packed, err := r.string()
	if err != nil {
		return SummaryResult{}, err
	}
	return SummaryResult{Hit: hit == 1, Packed: packed}, r.done()
}
