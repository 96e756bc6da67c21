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

// TestOldClientNewServer speaks raw protocol 1 at a v2 server: the
// handshake must negotiate down and every response frame must be exact
// v1 — no trailing proto in Welcome, no trace id in Done.
func TestOldClientNewServer(t *testing.T) {
	eng, srv := startTracedServer(t)
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	wc := wire.NewConn(nc)

	if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolV1, User: "legacy"})); err != nil {
		t.Fatal(err)
	}
	f, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.MsgWelcome {
		t.Fatalf("v1 hello got frame type %#x, want Welcome", f.Type)
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.Proto != wire.ProtocolV1 {
		t.Fatalf("negotiated proto %d for a v1 client, want 1", w.Proto)
	}

	// A v1 statement (no trace header) must run, and the Done frame must
	// be byte-exact v1: the lenient decoder sees no trace id.
	if err := wc.Send(wire.MsgQuery, wire.EncodeStatement("SELECT count(*) FROM T")); err != nil {
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
			if d.TraceID != "" {
				t.Fatalf("v1 Done frame carried trace id %q", d.TraceID)
			}
			// The statement is still traced server-side: a fresh TraceID
			// with the server span, just not echoed to the old client.
			found := false
			for _, rec := range eng.Traces().Snapshot() {
				if rec.SQL == "SELECT count(*) FROM T" {
					found = true
				}
			}
			if !found {
				t.Error("v1 client statement missing from the trace store")
			}
			return
		case wire.MsgError:
			we, _ := wire.DecodeError(f.Payload)
			t.Fatalf("statement failed: %v", we)
		default:
			t.Fatalf("unexpected frame type %#x", f.Type)
		}
	}
}
