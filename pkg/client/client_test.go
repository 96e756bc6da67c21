package client

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/db"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/server"
)

func TestIsIdempotentSelect(t *testing.T) {
	yes := []string{
		"SELECT 1 + 1 FROM T",
		"  select i from x order by i",
		"\nSELECT\ti FROM X",
		"SELECT(i) FROM X",
	}
	no := []string{
		"INSERT INTO T VALUES (1)",
		"CREATE TABLE T (a INT)",
		"SELECT i FROM X; DROP TABLE X",
		"SELECTX FROM T",
		"",
	}
	for _, sql := range yes {
		if !isIdempotentSelect(sql) {
			t.Errorf("isIdempotentSelect(%q) = false, want true", sql)
		}
	}
	for _, sql := range no {
		if isIdempotentSelect(sql) {
			t.Errorf("isIdempotentSelect(%q) = true, want false", sql)
		}
	}
}

// startServerAt opens a fresh engine with table T loaded and serves it
// at addr ("127.0.0.1:0" for ephemeral).
func startServerAt(t *testing.T, addr string) *server.Server {
	t.Helper()
	eng := db.Open(db.Options{Partitions: 2})
	if _, err := eng.Exec("CREATE TABLE T (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(eng, server.Config{Addr: addr})
	if err := srv.Start(); err != nil {
		t.Fatalf("start server at %s: %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestRetryOnBrokenConnection bounces the server between two queries on
// the same pool: the second query's pooled connection is dead, and the
// automatic SELECT retry must transparently re-dial and succeed.
func TestRetryOnBrokenConnection(t *testing.T) {
	srv1 := startServerAt(t, "127.0.0.1:0")
	addr := srv1.Addr()
	p, err := Open(Config{
		Addr: addr, User: "retrier", PoolSize: 1,
		RetryBackoff:     time.Millisecond,
		HealthCheckAfter: -1, // force the broken conn to be used as-is
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	const sel = "SELECT i FROM T ORDER BY i"
	if _, err := p.Query(ctx, sel); err != nil {
		t.Fatalf("first query: %v", err)
	}
	before := retriesTotal.Value()

	srv1.Close()
	startServerAt(t, addr) // same address, fresh server

	rows, err := p.Query(ctx, sel)
	if err != nil {
		t.Fatalf("query across server bounce: %v", err)
	}
	if len(rows.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows.Rows))
	}
	if retriesTotal.Value() <= before {
		t.Fatal("success did not go through the retry path")
	}
}

// TestNoRetryForWrites breaks the pooled connection and requires a
// non-idempotent statement to fail rather than silently re-run.
func TestNoRetryForWrites(t *testing.T) {
	srv1 := startServerAt(t, "127.0.0.1:0")
	addr := srv1.Addr()
	p, err := Open(Config{Addr: addr, User: "writer", PoolSize: 1, HealthCheckAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	if _, err := p.Query(ctx, "SELECT i FROM T"); err != nil {
		t.Fatalf("first query: %v", err)
	}
	srv1.Close()
	startServerAt(t, addr)

	if _, err := p.Exec(ctx, "INSERT INTO T VALUES (99)"); err == nil {
		t.Fatal("Exec across a broken connection succeeded; writes must not be retried")
	}
}

// TestHealthCheckRecyclesStaleConns bounces the server and requires the
// checkout-time ping to catch the dead pooled connection, so even a
// never-retried statement succeeds on a freshly dialed one.
func TestHealthCheckRecyclesStaleConns(t *testing.T) {
	srv1 := startServerAt(t, "127.0.0.1:0")
	addr := srv1.Addr()
	p, err := Open(Config{Addr: addr, User: "hc", PoolSize: 1, HealthCheckAfter: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	if _, err := p.Query(ctx, "SELECT i FROM T"); err != nil {
		t.Fatalf("first query: %v", err)
	}
	srv1.Close()
	startServerAt(t, addr)

	if _, err := p.Exec(ctx, "INSERT INTO T VALUES (42)"); err != nil {
		t.Fatalf("Exec after server bounce: %v (health check should have recycled the conn)", err)
	}
}

// TestCancelledCallDoesNotPoisonPool cancels a query mid-flight and
// requires the pool to discard — not recycle — the abandoned
// connection: its deadline was moved into the past and its response
// stream is half-read, so pooling it would hand the next caller (here
// a never-retried INSERT) a spurious instant i/o timeout.
func TestCancelledCallDoesNotPoisonPool(t *testing.T) {
	eng := db.Open(db.Options{Partitions: 2})
	if _, err := eng.Exec("CREATE TABLE B (v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO B VALUES (1.0)"); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	err := eng.Scalars().Register(expr.FuncDef{
		Name: "park1", MinArgs: 1, MaxArgs: 1, UDF: true,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
			<-release
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // before srv.Close (LIFO)

	p, err := Open(Config{Addr: srv.Addr(), User: "canceller", PoolSize: 1, HealthCheckAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.Query(ctx, "SELECT park1(v) FROM B"); err == nil {
		t.Fatal("parked query outlived its context")
	}
	// Unpark the abandoned server-side statement so it can observe its
	// cancelled session context and release its scan.
	unpark()
	// The abandoned connection must not be recycled: the INSERT is not
	// retried, so it only succeeds on a freshly dialed connection.
	if _, err := p.Exec(context.Background(), "INSERT INTO B VALUES (2.0)"); err != nil {
		t.Fatalf("statement after cancelled call: %v", err)
	}
}

// TestCancelAfterSuccessDoesNotPoisonPool is the regression for the
// watcher's late-deadline race: a context cancelled right after its
// call succeeded could still make the (already stopped) watcher move
// the deadline of a connection that was back in the pool, so the next
// statement on it failed with an instant i/o timeout. The follow-up
// statement is an INSERT because writes are never retried.
func TestCancelAfterSuccessDoesNotPoisonPool(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "c", PoolSize: 1, HealthCheckAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Exec(context.Background(), "CREATE TABLE W (i BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := p.Query(ctx, "SELECT i FROM T")
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: query: %v", i, err)
		}
		if _, err := p.Exec(context.Background(), "INSERT INTO W VALUES (1)"); err != nil {
			t.Fatalf("iteration %d: statement on the pooled connection: %v", i, err)
		}
	}
}

func TestQueryContextCancel(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "c", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Query(ctx, "SELECT i FROM T"); err == nil {
		t.Fatal("query with cancelled context succeeded")
	}
	// The pool recovers: a fresh call works.
	if _, err := p.Query(context.Background(), "SELECT i FROM T"); err != nil {
		t.Fatalf("query after cancelled call: %v", err)
	}
}

func TestPoolClose(t *testing.T) {
	srv := startServerAt(t, "127.0.0.1:0")
	p, err := Open(Config{Addr: srv.Addr(), User: "c", PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(context.Background(), "SELECT i FROM T"); err == nil {
		t.Fatal("query on closed pool succeeded")
	}
}
