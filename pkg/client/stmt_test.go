package client

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/sqltypes"
)

func TestStmtQueryParams(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "stmt", PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	stmt := p.Prepare("SELECT i FROM T WHERE i = ?")
	for i := 1; i <= 3; i++ {
		rows, err := stmt.Query(ctx, sqltypes.NewBigInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != 1 || rows.Rows[0][0].Int() != int64(i) {
			t.Fatalf("i=%d: rows %v", i, rows.Rows)
		}
	}
}

func TestStmtPrepareErrorSurfacesFromQuery(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "stmt", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stmt := p.Prepare("SELECT nocolumn FROM T")
	if _, err := stmt.Query(context.Background()); err == nil {
		t.Fatal("prepare of a bad statement succeeded")
	}
	// The pooled connection survives the server's rejection.
	if _, err := p.Query(context.Background(), "SELECT i FROM T"); err != nil {
		t.Fatalf("pool poisoned by failed prepare: %v", err)
	}
}

// TestStmtReprepareAfterBounce restarts the server between two
// executions of the same Stmt. The retry lands on a fresh connection to
// a server whose plan cache is empty; the statement's text is all it
// needs to plan again.
func TestStmtReprepareAfterBounce(t *testing.T) {
	srv1 := startServerAt(t, "127.0.0.1:0")
	addr := srv1.Addr()
	p, err := Open(Config{
		Addr: addr, User: "stmt", PoolSize: 1,
		RetryBackoff:     time.Millisecond,
		HealthCheckAfter: -1, // hand out the dead conn as-is; the retry must save us
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	stmt := p.Prepare("SELECT i FROM T WHERE i = ?")
	if _, err := stmt.Query(ctx, sqltypes.NewBigInt(1)); err != nil {
		t.Fatalf("first execute: %v", err)
	}
	before := retriesTotal.Value()

	srv1.Close()
	startServerAt(t, addr) // fresh server: no plan survives

	rows, err := stmt.Query(ctx, sqltypes.NewBigInt(2))
	if err != nil {
		t.Fatalf("execute across server bounce: %v", err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0].Int() != 2 {
		t.Fatalf("rows %v", rows.Rows)
	}
	if retriesTotal.Value() <= before {
		t.Fatal("success did not go through the retry path")
	}
}

// TestStmtSurvivesDDLInvalidation runs DDL between executions: the
// plan cache's entry goes stale, and the server must plan the text
// again rather than surface staleness to the caller.
func TestStmtSurvivesDDLInvalidation(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "stmt", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	stmt := p.Prepare("SELECT i FROM T WHERE i = ?")
	if _, err := stmt.Query(ctx, sqltypes.NewBigInt(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Exec(ctx, fmt.Sprintf("CREATE TABLE ddl%d (a BIGINT)", i)); err != nil {
			t.Fatal(err)
		}
		rows, err := stmt.Query(ctx, sqltypes.NewBigInt(1))
		if err != nil {
			t.Fatalf("after DDL %d: %v", i, err)
		}
		if len(rows.Rows) != 1 {
			t.Fatalf("after DDL %d: rows %v", i, rows.Rows)
		}
	}
}

// TestStmtConcurrent hammers one Stmt from several goroutines across a
// small pool; run under -race this proves that sessions sharing one
// cached plan are properly confined.
func TestStmtConcurrent(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "conc", PoolSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stmt := p.Prepare("SELECT i FROM T WHERE i = ?")
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				want := int64(i%3 + 1)
				rows, err := stmt.Query(context.Background(), sqltypes.NewBigInt(want))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(rows.Rows) != 1 || rows.Rows[0][0].Int() != want {
					t.Errorf("worker %d: rows %v", w, rows.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStmtInsertParams binds both values of a parameterized INSERT
// through Stmt.Query; every execution writes its one row.
func TestStmtInsertParams(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "stmt", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Exec(ctx, "CREATE TABLE P (i BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	ins := p.Prepare("INSERT INTO P VALUES (?, ?)")
	for i := 1; i <= 3; i++ {
		res, err := ins.Query(ctx, sqltypes.NewBigInt(int64(i)), sqltypes.NewDouble(float64(i)+0.5))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.Affected != 1 {
			t.Fatalf("insert %d: affected %d, want 1", i, res.Affected)
		}
	}
	rows, err := p.Query(ctx, "SELECT i, v FROM P ORDER BY i")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 3 {
		t.Fatalf("rows %v, want 3", rows.Rows)
	}
	for k, r := range rows.Rows {
		if v, _ := r[1].Float(); r[0].Int() != int64(k+1) || v != float64(k+1)+0.5 {
			t.Fatalf("row %d = %v", k, r)
		}
	}
}

// TestStmtWrongArgCount: too few or too many arguments fail the call
// with an error and no rows, for a SELECT and for an INSERT, and leave
// the pooled connection usable.
func TestStmtWrongArgCount(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "stmt", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	sel := p.Prepare("SELECT i FROM T WHERE i = ?")
	ins := p.Prepare("INSERT INTO T VALUES (?)")
	for _, args := range [][]sqltypes.Value{nil, {sqltypes.NewBigInt(1), sqltypes.NewBigInt(2)}} {
		if rows, err := sel.Query(ctx, args...); err == nil || rows != nil {
			t.Fatalf("%d args for 1 slot: rows %v, err %v", len(args), rows, err)
		}
		streamed := 0
		if _, err := sel.QueryStream(ctx, func(sqltypes.Row) error { streamed++; return nil }, args...); err == nil || streamed != 0 {
			t.Fatalf("%d args for 1 slot streamed %d rows, err %v", len(args), streamed, err)
		}
		if rows, err := ins.Query(ctx, args...); err == nil || rows != nil {
			t.Fatalf("INSERT with %d args for 1 slot: rows %v, err %v", len(args), rows, err)
		}
	}
	rows, err := p.Query(ctx, "SELECT count(*) FROM T")
	if err != nil {
		t.Fatalf("after arity errors: %v", err)
	}
	if n := rows.Rows[0][0].Int(); n != 3 {
		t.Fatalf("T holds %d rows after rejected INSERTs, want 3", n)
	}
	if rows, err := sel.Query(ctx, sqltypes.NewBigInt(1)); err != nil || len(rows.Rows) != 1 {
		t.Fatalf("correct call after arity errors: rows %v, err %v", rows, err)
	}
}

// TestStmtAcrossDropCreate drops and recreates the statement's table
// between executions: while the table is gone the call fails cleanly,
// and once it is back the same Stmt reads the new table.
func TestStmtAcrossDropCreate(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "stmt", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	stmt := p.Prepare("SELECT i FROM T WHERE i = ?")
	if rows, err := stmt.Query(ctx, sqltypes.NewBigInt(1)); err != nil || len(rows.Rows) != 1 {
		t.Fatalf("before DROP: rows %v, err %v", rows, err)
	}
	if _, err := p.Exec(ctx, "DROP TABLE T"); err != nil {
		t.Fatal(err)
	}
	if rows, err := stmt.Query(ctx, sqltypes.NewBigInt(1)); err == nil {
		t.Fatalf("table dropped, yet the statement returned %v", rows.Rows)
	}
	if _, err := p.Exec(ctx, "CREATE TABLE T (i BIGINT); INSERT INTO T VALUES (1), (1), (5)"); err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query(ctx, sqltypes.NewBigInt(1))
	if err != nil {
		t.Fatalf("after CREATE: %v", err)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("after CREATE: rows %v, want the new table's two matches", rows.Rows)
	}
}
