package server

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/server/wire"
)

// faultEngine is a real engine whose failures the envelope test picks:
// fail is what the scalar UDF fail1 (Query, Exec) and SummaryNLQ
// return while it is non-nil.
type faultEngine struct {
	*db.DB
	fail atomic.Pointer[error]
}

func (e *faultEngine) failure() error {
	if p := e.fail.Load(); p != nil {
		return *p
	}
	return nil
}

func (e *faultEngine) SummaryNLQ(ctx context.Context, table string, cols []string, mt core.MatrixType) (*core.NLQ, bool, error) {
	if err := e.failure(); err != nil {
		return nil, false, err
	}
	return e.DB.SummaryNLQ(ctx, table, cols, mt)
}

// envelopeFixture is one server over a faultEngine with a three-row
// table, and one raw handshaken connection to it; ln counts the
// server's socket writes.
type envelopeFixture struct {
	eng *faultEngine
	srv *Server
	ln  *countingListener
	nc  net.Conn
	wc  *wire.Conn
}

// countingListener hands out connections that count the Write calls
// the server makes on them, that is, what reaches the socket.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func newEnvelopeFixture(t *testing.T, cfg Config) *envelopeFixture {
	t.Helper()
	sd, err := statsudf.Open(statsudf.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	fx := &envelopeFixture{eng: &faultEngine{DB: sd.Engine()}}
	err = fx.eng.Scalars().Register(expr.FuncDef{
		Name: "fail1", MinArgs: 1, MaxArgs: 1, UDF: true,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) { return args[0], fx.eng.failure() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.eng.ExecScript("CREATE TABLE T (v DOUBLE); INSERT INTO T VALUES (1.0), (2.0), (3.0)"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fx.ln = &countingListener{Listener: ln}
	fx.srv = New(fx.eng, cfg)
	if err := fx.srv.serve(fx.ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fx.srv.Close() })

	nc, err := net.Dial("tcp", fx.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	fx.nc, fx.wc = nc, wire.NewConn(nc)
	if err := fx.wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "envelope"})); err != nil {
		t.Fatal(err)
	}
	if f, err := fx.wc.Recv(); err != nil || f.Type != wire.MsgWelcome {
		t.Fatalf("handshake: %v %v", f, err)
	}
	return fx
}

// failWith makes the engine fail with err until the returned func runs.
func (fx *envelopeFixture) failWith(err error) (disarm func()) {
	fx.eng.fail.Store(&err)
	return func() { fx.eng.fail.Store(nil) }
}

// roundTrip sends one request frame and drains its reply, returning the
// typed error code ("" on success) and the frame types that arrived.
func (fx *envelopeFixture) roundTrip(t *testing.T, typ byte, payload []byte) (code string, reply []byte) {
	t.Helper()
	if err := fx.wc.Send(typ, payload); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := fx.wc.Recv()
		if err != nil {
			t.Fatalf("reply to frame %#x: %v (after %#x)", typ, err, reply)
		}
		reply = append(reply, f.Type)
		switch f.Type {
		case wire.MsgBatch, wire.MsgSchema:
		case wire.MsgError:
			we, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return we.Code, reply
		default: // Done, SummaryResult, Pong
			return "", reply
		}
	}
}

const failSQL = "SELECT fail1(v) FROM T"

func statementPayload(sql string, args ...sqltypes.Value) func(*envelopeFixture) []byte {
	return func(*envelopeFixture) []byte {
		p, err := wire.EncodeStatement(wire.Statement{SQL: sql, Args: args})
		if err != nil {
			panic(err)
		}
		return p
	}
}

// TestStatementEnvelope runs every request kind that executes through
// every way the envelope can end, and requires the kinds to be
// indistinguishable: the same typed code, a session that takes the next
// frame, the in-flight gauge back at zero and exactly one latency
// observation.
func TestStatementEnvelope(t *testing.T) {
	kinds := []struct {
		name    string
		typ     byte
		payload func(fx *envelopeFixture) []byte
		reply   []byte // frame types of a successful reply
	}{
		{"Query", wire.MsgQuery, statementPayload(failSQL), []byte{wire.MsgBatch, wire.MsgSchema, wire.MsgDone}},
		{"Exec", wire.MsgExec, statementPayload("SELECT 1; " + failSQL), []byte{wire.MsgBatch, wire.MsgSchema, wire.MsgDone}},
		{"QueryArgs", wire.MsgQuery, statementPayload(failSQL+" WHERE v > ?", sqltypes.NewDouble(0)), []byte{wire.MsgBatch, wire.MsgSchema, wire.MsgDone}},
		{"Summary", wire.MsgSummary, func(*envelopeFixture) []byte {
			return wire.EncodeSummary(wire.Summary{Table: "T", Matrix: byte(core.Triangular)})
		}, []byte{wire.MsgSummaryResult}},
	}
	conds := []struct {
		name     string
		cfg      Config
		arm      func(fx *envelopeFixture) (disarm func())
		code     string
		admitted int64 // statements sys.sessions counts: 1 once past admission
	}{
		{"ok", Config{}, func(*envelopeFixture) func() { return func() {} }, "", 1},
		{"draining", Config{}, func(fx *envelopeFixture) func() {
			fx.srv.draining.Store(true)
			return func() { fx.srv.draining.Store(false) }
		}, wire.CodeShutdown, 0},
		{"admission full", Config{MaxStatements: 1, MaxWaiting: -1}, func(fx *envelopeFixture) func() {
			if err := fx.srv.adm.acquire(context.Background()); err != nil {
				panic(err)
			}
			return fx.srv.adm.release
		}, wire.CodeBusy, 0},
		{"cancelled ctx", Config{}, func(fx *envelopeFixture) func() {
			return fx.failWith(context.Canceled)
		}, wire.CodeCancelled, 1},
		{"engine error", Config{}, func(fx *envelopeFixture) func() {
			return fx.failWith(errors.New("disk on fire"))
		}, wire.CodeInternal, 1},
	}
	for _, cond := range conds {
		for _, kind := range kinds {
			t.Run(cond.name+"/"+kind.name, func(t *testing.T) {
				fx := newEnvelopeFixture(t, cond.cfg)
				payload := kind.payload(fx)
				sess := fx.srv.sessions.snapshot()[0]
				completed := func() int64 {
					sess.mu.Lock()
					defer sess.mu.Unlock()
					return sess.statements
				}
				observed, before := statementSeconds.Count(), completed()

				disarm := cond.arm(fx)
				code, reply := fx.roundTrip(t, kind.typ, payload)
				disarm()

				if code != cond.code {
					t.Errorf("typed code = %q, want %q", code, cond.code)
				}
				if cond.code == "" && string(reply) != string(kind.reply) {
					t.Errorf("reply frames = %#x, want %#x", reply, kind.reply)
				}
				// The reply is written inside the envelope, ahead of its
				// deferred bookkeeping; a session handles frames in order, so
				// a Pong means the envelope has fully unwound.
				if code, _ := fx.roundTrip(t, wire.MsgPing, nil); code != "" {
					t.Fatalf("ping after the reply: %s", code)
				}
				if got := statementSeconds.Count() - observed; got != 1 {
					t.Errorf("engine_server_statement_seconds count moved by %d, want 1", got)
				}
				if got := statementsInflight.Value(); got != 0 {
					t.Errorf("engine_server_statements_inflight = %d after the reply, want 0", got)
				}
				if got := completed() - before; got != cond.admitted {
					t.Errorf("session completed %d admitted statements, want %d", got, cond.admitted)
				}
				// The session stays usable: the same request now succeeds.
				if code, reply := fx.roundTrip(t, kind.typ, payload); code != "" || string(reply) != string(kind.reply) {
					t.Errorf("next request on the session: code %q, frames %#x; want success with %#x", code, reply, kind.reply)
				}
			})
		}
	}
}

// TestBytesBilledPerFrame: a session that never runs a statement — the
// coordinator's sub-pool connections only ever carry Summary frames —
// still shows up in the byte counters, frame by frame, instead of
// waiting for a statement (or the end of the session) to flush them.
func TestBytesBilledPerFrame(t *testing.T) {
	recv0, sent0 := bytesReceived.Value(), bytesSent.Value()
	fx := newEnvelopeFixture(t, Config{})
	for _, fr := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"Ping", wire.MsgPing, nil}, // also carries the handshake's bytes
		{"Query", wire.MsgQuery, statementPayload("SELECT v FROM T WHERE v > ?", sqltypes.NewDouble(1.5))(fx)},
		{"Summary", wire.MsgSummary, wire.EncodeSummary(wire.Summary{Table: "T", Matrix: byte(core.Full)})},
	} {
		if code, _ := fx.roundTrip(t, fr.typ, fr.payload); code != "" {
			t.Fatalf("%s: %s", fr.name, code)
		}
		// What this end wrote and read is what the server must have
		// billed once the frame's dispatch returns, just after the reply.
		wantRecv, wantSent := fx.wc.BytesWritten.Load(), fx.wc.BytesRead.Load()
		billed := func() bool {
			return bytesReceived.Value()-recv0 >= wantRecv && bytesSent.Value()-sent0 >= wantSent
		}
		for deadline := time.Now().Add(5 * time.Second); !billed() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := bytesReceived.Value() - recv0; got != wantRecv {
			t.Fatalf("after %s: engine_server_bytes_received_total moved by %d, the client wrote %d", fr.name, got, wantRecv)
		}
		if got := bytesSent.Value() - sent0; got != wantSent {
			t.Fatalf("after %s: engine_server_bytes_sent_total moved by %d, the client read %d", fr.name, got, wantSent)
		}
	}
}
