package server_test

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/pkg/client"
)

// dialWire opens a raw protocol connection with the handshake done.
func dialWire(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	wc := wire.NewConn(nc)
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "raw"})); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgWelcome {
		t.Fatalf("handshake: %v %v", f, err)
	}
	return wc
}

// prepareWire sends MsgPrepare and returns the handle info.
func prepareWire(t *testing.T, wc *wire.Conn, sql string) wire.PreparedInfo {
	t.Helper()
	if err := wc.Send(wire.MsgPrepare, wire.EncodePrepare(sql)); err != nil {
		t.Fatal(err)
	}
	f, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type == wire.MsgError {
		e, _ := wire.DecodeError(f.Payload)
		t.Fatalf("prepare %q: %v", sql, e)
	}
	if f.Type != wire.MsgPrepared {
		t.Fatalf("prepare reply type 0x%02x", f.Type)
	}
	pi, err := wire.DecodePrepared(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return pi
}

// execWire sends MsgExecPrepared and drains the reply, returning the
// row count or the wire error.
func execWire(t *testing.T, wc *wire.Conn, handle int64, args ...sqltypes.Value) (int, *wire.Error) {
	t.Helper()
	payload, err := wire.EncodeExecPrepared(handle, args, wire.TraceHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.MsgExecPrepared, payload); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		f, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.MsgBatch:
			b, err := wire.DecodeBatch(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			rows += len(b)
		case wire.MsgSchema:
		case wire.MsgDone:
			return rows, nil
		case wire.MsgError:
			e, _ := wire.DecodeError(f.Payload)
			return rows, e
		default:
			t.Fatalf("unexpected frame 0x%02x", f.Type)
		}
	}
}

func TestPrepareExecuteCloseOverWire(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d, %d.5)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	wc := dialWire(t, srv.Addr())

	pi := prepareWire(t, wc, "SELECT i, v FROM T WHERE i = ?")
	if pi.NumParams != 1 {
		t.Fatalf("NumParams = %d", pi.NumParams)
	}
	for i := 0; i < 8; i++ {
		rows, werr := execWire(t, wc, pi.Handle, sqltypes.NewBigInt(int64(i)))
		if werr != nil {
			t.Fatalf("execute %d: %v", i, werr)
		}
		if rows != 1 {
			t.Fatalf("execute %d: %d rows", i, rows)
		}
	}

	// Close releases the handle; executing it afterwards is the typed
	// stale-plan rejection, which tells the client to re-prepare (not a
	// generic failure that would poison the connection).
	if err := wc.Send(wire.MsgClosePrepared, wire.EncodeClosePrepared(pi.Handle)); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgDone {
		t.Fatalf("close reply: %v %v", f, err)
	}
	_, werr := execWire(t, wc, pi.Handle, sqltypes.NewBigInt(1))
	if werr == nil || werr.Code != wire.CodeStalePlan {
		t.Fatalf("execute after close: %v, want code %q", werr, wire.CodeStalePlan)
	}

	// Unknown handles get the same typed answer.
	_, werr = execWire(t, wc, 424242, sqltypes.NewBigInt(1))
	if werr == nil || werr.Code != wire.CodeStalePlan {
		t.Fatalf("unknown handle: %v, want code %q", werr, wire.CodeStalePlan)
	}
}

// TestExecPreparedSurvivesDDL: DDL between EXECUTEs bumps the catalog
// epoch; the session must transparently re-prepare server-side — the
// retry is safe because staleness is detected before any row is sent.
func TestExecPreparedSurvivesDDL(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO T VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	wc := dialWire(t, srv.Addr())
	pi := prepareWire(t, wc, "SELECT i FROM T WHERE i = ?")

	for round := 0; round < 3; round++ {
		if _, err := eng.Exec(fmt.Sprintf("CREATE TABLE ddl%d (a BIGINT)", round)); err != nil {
			t.Fatal(err)
		}
		rows, werr := execWire(t, wc, pi.Handle, sqltypes.NewBigInt(7))
		if werr != nil {
			t.Fatalf("round %d: %v", round, werr)
		}
		if rows != 1 {
			t.Fatalf("round %d: %d rows", round, rows)
		}
	}
}

// TestPreparePerSessionCap: a session exceeding its handle budget gets
// a clean error, and the connection stays usable.
func TestPreparePerSessionCap(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	wc := dialWire(t, srv.Addr())

	var handles []int64
	var rejected bool
	for i := 0; i < 100; i++ {
		sql := fmt.Sprintf("SELECT i FROM T WHERE i = %d", i)
		if err := wc.Send(wire.MsgPrepare, wire.EncodePrepare(sql)); err != nil {
			t.Fatal(err)
		}
		f, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.MsgPrepared:
			pi, err := wire.DecodePrepared(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, pi.Handle)
		case wire.MsgError:
			rejected = true
		default:
			t.Fatalf("frame 0x%02x", f.Type)
		}
		if rejected {
			break
		}
	}
	if !rejected {
		t.Fatalf("session prepared %d handles without hitting the cap", len(handles))
	}
	// The rejection is not fatal to the session: releasing a handle
	// makes room, and the next prepare succeeds.
	if err := wc.Send(wire.MsgClosePrepared, wire.EncodeClosePrepared(handles[0])); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgDone {
		t.Fatalf("close reply: %v %v", f, err)
	}
	pi := prepareWire(t, wc, "SELECT i FROM T WHERE i = 0")
	if _, werr := execWire(t, wc, pi.Handle); werr != nil {
		t.Fatalf("after cap rejection: %v", werr)
	}
}

// TestPreparedHandlesScopedPerSession: one session cannot execute
// another session's handle.
func TestPreparedHandlesScopedPerSession(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	wc1 := dialWire(t, srv.Addr())
	wc2 := dialWire(t, srv.Addr())
	pi := prepareWire(t, wc1, "SELECT i FROM T WHERE i = ?")

	if rows, werr := execWire(t, wc1, pi.Handle, sqltypes.NewBigInt(1)); werr != nil || rows != 1 {
		t.Fatalf("owner session: rows=%d err=%v", rows, werr)
	}
	if _, werr := execWire(t, wc2, pi.Handle, sqltypes.NewBigInt(1)); werr == nil || werr.Code != wire.CodeStalePlan {
		t.Fatalf("foreign session executed another session's handle: %v", werr)
	}
}

// TestPreparedClosedOnDisconnect: a session's handles are released
// when it goes away, so sys.prepared does not accumulate dead plans.
func TestPreparedClosedOnDisconnect(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(nc)
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "raw"})); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgWelcome {
		t.Fatalf("handshake: %v %v", f, err)
	}
	const sql = "SELECT i FROM T WHERE i = ?"
	prepareWire(t, wc, sql)

	countPrepared := func() int {
		res, err := eng.Exec("SELECT sql_text, cached FROM sys.prepared")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range res.Rows {
			if r[0].Str() == sql && !r[1].Bool() {
				n++
			}
		}
		return n
	}
	if got := countPrepared(); got != 1 {
		t.Fatalf("before disconnect: %d handles", got)
	}
	nc.Close()
	waitFor(t, "handles released on disconnect", func() bool { return countPrepared() == 0 })

}

// TestOrderedQueryServedFromPlanCache: an ad-hoc ORDER BY/LIMIT query
// over the wire takes the same text entry as the in-process Exec, so
// its second sighting is a plan-cache hit (no parse, no planning) and
// sys.prepared lists the cached plan with both executions on it.
func TestOrderedQueryServedFromPlanCache(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.ExecScript("CREATE TABLE T (i BIGINT); INSERT INTO T VALUES (3), (1), (2)"); err != nil {
		t.Fatal(err)
	}
	p, err := client.Open(client.Config{Addr: srv.Addr(), User: "adhoc", PoolSize: 1, AutoPrepareAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const sql = "SELECT i FROM T ORDER BY i DESC LIMIT 2"
	hits := obs.PlanCacheHits.Value()
	for run := 1; run <= 2; run++ {
		rows, err := p.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != 2 || rows.Rows[0][0].Int() != 3 || rows.Rows[1][0].Int() != 2 {
			t.Fatalf("run %d: rows = %v, want [[3] [2]]", run, rows.Rows)
		}
	}
	if got := obs.PlanCacheHits.Value() - hits; got != 1 {
		t.Errorf("engine_plan_cache_hits moved by %d over two sightings, want 1", got)
	}
	res, err := eng.Exec("SELECT executions FROM sys.prepared WHERE cached AND sql_text = '" + sql + "'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("sys.prepared rows for the cached plan = %v, want one with 2 executions", res.Rows)
	}
}
