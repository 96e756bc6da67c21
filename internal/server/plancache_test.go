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

// statementFrame encodes a MsgQuery/MsgExec payload with no trace
// context.
func statementFrame(t *testing.T, sql string, args ...sqltypes.Value) []byte {
	t.Helper()
	p, err := wire.EncodeStatement(wire.Statement{SQL: sql, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// queryWire sends a MsgQuery carrying args and drains the reply,
// returning the row count or the wire error.
func queryWire(t *testing.T, wc *wire.Conn, sql string, args ...sqltypes.Value) (int, *wire.Error) {
	t.Helper()
	if err := wc.Send(wire.MsgQuery, statementFrame(t, sql, args...)); err != nil {
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

// TestExecPreparedSurvivesDDL: DDL between executions of one
// parameterized text on one session bumps the catalog epoch; the plan
// cache's entry goes stale and the server plans the text again, so the
// caller never sees the staleness.
func TestExecPreparedSurvivesDDL(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.ExecScript("CREATE TABLE T (i BIGINT); INSERT INTO T VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	wc := dialWire(t, srv.Addr())
	const sql = "SELECT i FROM T WHERE i = ?"
	if rows, werr := queryWire(t, wc, sql, sqltypes.NewBigInt(7)); werr != nil || rows != 1 {
		t.Fatalf("before DDL: %d rows, %v", rows, werr)
	}
	for round := 0; round < 3; round++ {
		if _, err := eng.Exec(fmt.Sprintf("CREATE TABLE ddl%d (a BIGINT)", round)); err != nil {
			t.Fatal(err)
		}
		rows, werr := queryWire(t, wc, sql, sqltypes.NewBigInt(7))
		if werr != nil {
			t.Fatalf("round %d: %v", round, werr)
		}
		if rows != 1 {
			t.Fatalf("round %d: %d rows", round, rows)
		}
	}
}

// TestStmtServedFromOnePlan: a parameterized text executed N times over
// the wire, from two sessions, is planned once — one plan-cache miss,
// N − 1 hits — and lives in exactly one sys.prepared row, the plan
// cache's, which counts all N executions. The server keeps no plan of
// its own per session.
func TestStmtServedFromOnePlan(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.ExecScript("CREATE TABLE T (i BIGINT, v DOUBLE); INSERT INTO T VALUES (1, 1.5), (2, 2.5), (3, 3.5)"); err != nil {
		t.Fatal(err)
	}
	pools := []*client.Pool{openPool(t, srv.Addr(), "a", 1), openPool(t, srv.Addr(), "b", 1)}
	const sql = "SELECT v FROM T WHERE i = ?"
	const n = 9
	hits, misses := obs.PlanCacheHits.Value(), obs.PlanCacheMisses.Value()
	for k := 0; k < n; k++ {
		i := int64(k%3 + 1)
		rows, err := pools[k%2].Prepare(sql).Query(context.Background(), sqltypes.NewBigInt(i))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := rows.Rows[0][0].Float(); len(rows.Rows) != 1 || v != float64(i)+0.5 {
			t.Fatalf("execution %d: rows %v", k, rows.Rows)
		}
	}
	if got := obs.PlanCacheMisses.Value() - misses; got != 1 {
		t.Errorf("engine_plan_cache_misses moved by %d over %d executions, want 1", got, n)
	}
	if got := obs.PlanCacheHits.Value() - hits; got != n-1 {
		t.Errorf("engine_plan_cache_hits moved by %d over %d executions, want %d", got, n, n-1)
	}
	res, err := eng.Exec("SELECT stale, params, executions FROM sys.prepared WHERE sql_text = '" + sql + "'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("sys.prepared holds %d rows for the text, want 1: %v", len(res.Rows), res.Rows)
	}
	if r := res.Rows[0]; r[0].Bool() || r[1].Int() != 1 || r[2].Int() != n {
		t.Errorf("sys.prepared row (stale, params, executions) = %v, want (false, 1, %d)", r, n)
	}
}

// TestScriptRefusesArgs: arguments bind to one statement, so an Exec
// frame that carries some gets a typed protocol error, runs nothing,
// and the session takes the next frame.
func TestScriptRefusesArgs(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	wc := dialWire(t, srv.Addr())
	if err := wc.Send(wire.MsgExec, statementFrame(t, "INSERT INTO T VALUES (?)", sqltypes.NewBigInt(1))); err != nil {
		t.Fatal(err)
	}
	f, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if we, _ := wire.DecodeError(f.Payload); f.Type != wire.MsgError || we.Code != wire.CodeProtocol {
		t.Fatalf("reply %#x %v, want a %q error", f.Type, we, wire.CodeProtocol)
	}
	if err := wc.Send(wire.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgPong {
		t.Fatalf("ping after the refusal: %#x %v", f.Type, err)
	}
	res, err := eng.Exec("SELECT count(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Fatalf("refused script wrote %d rows", got)
	}
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
	p := openPool(t, srv.Addr(), "adhoc", 1)

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
	res, err := eng.Exec("SELECT executions FROM sys.prepared WHERE sql_text = '" + sql + "'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("sys.prepared rows for the cached plan = %v, want one with 2 executions", res.Rows)
	}
}
