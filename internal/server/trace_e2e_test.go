package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	statsudf "repro"
	"repro/internal/engine/db"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/trace"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// startTracedServer fronts an engine that retains every trace, so the
// tests can assert on span trees without sampling nondeterminism.
func startTracedServer(t *testing.T) (*db.DB, *server.Server) {
	t.Helper()
	sd, err := statsudf.Open(statsudf.Options{Partitions: 2, TraceSampleN: 1})
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	eng := sd.Engine()
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, srv
}

// TestRemoteQueryTraceEndToEnd is the remote half of the acceptance
// criterion: a client-issued query must produce a sys.traces record
// whose span tree includes the server span and the exec statement span,
// all under the one TraceID the Done frame echoed to the client.
func TestRemoteQueryTraceEndToEnd(t *testing.T) {
	eng, srv := startTracedServer(t)
	p := openPool(t, srv.Addr(), "tracer", 1)
	ctx := context.Background()

	mustExecWire(t, p, "CREATE TABLE T (i BIGINT); INSERT INTO T VALUES (1); INSERT INTO T VALUES (2)")

	// Streamed SELECT (no ORDER BY/LIMIT takes the streaming path).
	res, err := p.Query(ctx, "SELECT i FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("Done frame carried no trace id on a v2 session")
	}
	if _, err := trace.ParseTraceID(res.TraceID); err != nil {
		t.Fatalf("trace id %q does not parse: %v", res.TraceID, err)
	}

	assertServerSpanTree(t, eng, res.TraceID)

	// Materialized path (script Exec) also links its trace.
	res2, err := p.Exec(ctx, "INSERT INTO T VALUES (9)")
	if err != nil {
		t.Fatal(err)
	}
	if res2.TraceID == "" || res2.TraceID == res.TraceID {
		t.Fatalf("exec trace id = %q (query was %q), want a fresh id", res2.TraceID, res.TraceID)
	}
	assertServerSpanTree(t, eng, res2.TraceID)

	// Prepared path: EXECUTE frames carry the trace header too.
	st := p.Prepare("SELECT i FROM T WHERE i = ?")
	res3, err := st.Query(ctx, sqltypes.NewBigInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res3.TraceID == "" {
		t.Fatal("prepared execution carried no trace id")
	}
	assertServerSpanTree(t, eng, res3.TraceID)
}

// assertServerSpanTree requires the retained trace to hold a server
// span parented at the client's roundtrip span, with the exec statement
// span nested under the server span.
func assertServerSpanTree(t *testing.T, eng *db.DB, tid string) {
	t.Helper()
	// The server attaches its span after the Done frame went out, so the
	// client can get here first: wait for the span, not for a duration.
	var rec trace.Record
	var serverSpan, stmtParent, serverParent string
	for deadline := time.Now().Add(5 * time.Second); serverSpan == "" && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var ok bool
		if rec, ok = eng.Traces().Get(tid); !ok {
			t.Fatalf("trace %s not retained server-side", tid)
		}
		for _, sp := range rec.Spans {
			switch sp.Name {
			case "server":
				serverSpan, serverParent = sp.SpanID, sp.ParentID
			case "statement":
				stmtParent = sp.ParentID
			}
		}
	}
	if serverSpan == "" {
		t.Fatalf("trace %s has no server span: %+v", tid, rec.Spans)
	}
	if stmtParent != serverSpan {
		t.Errorf("statement span parent = %q, want server span %q", stmtParent, serverSpan)
	}
	if serverParent == "" {
		t.Error("server span has no parent: the client's roundtrip span id was not adopted")
	}
	if rec.SessionID == 0 {
		t.Error("trace carries no session id")
	}
}

// TestHandshakeRejectsOtherVersions: the server speaks exactly one
// protocol version. A Hello naming any other — older or newer — gets
// the typed protocol error and no session.
func TestHandshakeRejectsOtherVersions(t *testing.T) {
	_, srv := startTracedServer(t)
	for _, v := range []uint32{0, 1, 2, 3, wire.ProtocolVersion - 1, wire.ProtocolVersion + 1} {
		nc, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		wc := wire.NewConn(nc)
		if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: v, User: "other"})); err != nil {
			t.Fatal(err)
		}
		f, err := wc.Recv()
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if f.Type != wire.MsgError {
			t.Fatalf("version %d hello got frame type %#x, want Error", v, f.Type)
		}
		we, err := wire.DecodeError(f.Payload)
		if err != nil || we.Code != wire.CodeProtocol {
			t.Fatalf("version %d hello got %v (%v), want the typed %q error", v, we, err, wire.CodeProtocol)
		}
		// The server hangs up: there is no session to send frames on.
		if _, err := wc.Recv(); err == nil {
			t.Fatalf("version %d: connection still open after the rejection", v)
		}
		nc.Close()
	}
}

// TestZeroTraceHeaderStartsServerTrace: a raw client with no trace
// context sends the zero header; the server starts a trace of its own,
// retains it like any other and echoes its id in Done.
func TestZeroTraceHeaderStartsServerTrace(t *testing.T) {
	eng, srv := startTracedServer(t)
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	wc := dialWire(t, srv.Addr())
	if err := wc.Send(wire.MsgQuery, statementFrame(t, "SELECT count(*) FROM T")); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.MsgSchema, wire.MsgBatch:
			continue
		case wire.MsgDone:
			d, err := wire.DecodeDone(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := trace.ParseTraceID(d.TraceID); err != nil {
				t.Fatalf("Done trace id %q does not parse: %v", d.TraceID, err)
			}
			// The server span lands after Done went out: wait for it.
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				rec, ok := eng.Traces().Get(d.TraceID)
				if !ok {
					t.Fatalf("trace %s not retained server-side", d.TraceID)
				}
				for _, sp := range rec.Spans {
					if sp.Name != "server" {
						continue
					}
					if sp.ParentID != "" {
						t.Errorf("server span parent = %q, want none: the client named no span", sp.ParentID)
					}
					return
				}
			}
			t.Fatalf("trace %s never got its server span", d.TraceID)
		case wire.MsgError:
			we, _ := wire.DecodeError(f.Payload)
			t.Fatalf("statement failed: %v", we)
		default:
			t.Fatalf("unexpected frame type %#x", f.Type)
		}
	}
}
