package server_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	statsudf "repro"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/score"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/sqlgen"
	"repro/pkg/client"
)

// startServer opens an engine with the paper's UDFs installed and a
// wire server in front of it on an ephemeral port.
func startServer(t *testing.T, cfg server.Config) (*db.DB, *server.Server) {
	t.Helper()
	sd, err := statsudf.Open(statsudf.Options{Partitions: 4})
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	eng := sd.Engine()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := server.New(eng, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, srv
}

func openPool(t *testing.T, addr, user string, size int) *client.Pool {
	t.Helper()
	p, err := client.Open(client.Config{Addr: addr, User: user, PoolSize: size})
	if err != nil {
		t.Fatalf("open pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func mustExecWire(t *testing.T, p *client.Pool, sql string) {
	t.Helper()
	if _, err := p.Exec(context.Background(), sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func TestQueryOverWire(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	p := openPool(t, srv.Addr(), "tester", 2)

	mustExecWire(t, p, "CREATE TABLE X (i BIGINT, X1 DOUBLE, grp VARCHAR)")
	for i := 1; i <= 5; i++ {
		mustExecWire(t, p, fmt.Sprintf("INSERT INTO X VALUES (%d, %d.5, 'g%d')", i, i, i%2))
	}
	rows, err := p.Query(context.Background(), "SELECT i, X1, grp FROM X ORDER BY i")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows.Rows))
	}
	if rows.Schema == nil || rows.Schema.Len() != 3 {
		t.Fatalf("schema = %v", rows.Schema)
	}
	if got := rows.Rows[4][1].String(); got != "5.5" {
		t.Fatalf("row 5 X1 = %s, want 5.5", got)
	}
	if rows.StatsJSON == "" || !strings.Contains(rows.StatsJSON, "rows_scanned") {
		t.Fatalf("Done carried no stats: %q", rows.StatsJSON)
	}

	// The statements landed in the engine's query ring tagged with this
	// network session and remote address.
	var tagged bool
	for _, r := range eng.RecentQueries() {
		if r.SessionID > 0 && strings.HasPrefix(r.RemoteAddr, "127.0.0.1:") {
			tagged = true
			break
		}
	}
	if !tagged {
		t.Fatal("no query ring record carries the wire session id and remote addr")
	}
	// In-process statements stay untagged.
	if _, err := eng.Exec("SELECT i FROM X ORDER BY i"); err != nil {
		t.Fatal(err)
	}
	if rec := eng.RecentQueries()[0]; rec.SessionID != 0 || rec.RemoteAddr != "" {
		t.Fatalf("in-process statement tagged with session %d addr %q", rec.SessionID, rec.RemoteAddr)
	}
}

func TestStreamedQueryOverWire(t *testing.T) {
	_, srv := startServer(t, server.Config{BatchRows: 3})
	p := openPool(t, srv.Addr(), "tester", 1)

	mustExecWire(t, p, "CREATE TABLE S (v DOUBLE)")
	for i := 0; i < 10; i++ {
		mustExecWire(t, p, fmt.Sprintf("INSERT INTO S VALUES (%d.0)", i))
	}
	// No ORDER BY: the server streams this in self-describing batches
	// with the schema frame trailing.
	var n int
	var sum float64
	schema, err := p.QueryStream(context.Background(), "SELECT v * 2 FROM S", func(r sqltypes.Row) error {
		f, _ := r[0].Float()
		sum += f
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n != 10 || sum != 90 {
		t.Fatalf("streamed %d rows sum %v, want 10 rows sum 90", n, sum)
	}
	if schema == nil || schema.Len() != 1 {
		t.Fatalf("schema = %v", schema)
	}
}

// TestScoringByteIdentical is the acceptance check: a scoring query
// through the pooled client against the wire server returns exactly
// the values the embedded engine returns in-process.
func TestScoringByteIdentical(t *testing.T) {
	sd, err := statsudf.Open(statsudf.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := sd.Engine()
	const dims = 4
	beta := []float64{0.5, -1.25, 2, 0}
	if err := sd.GenerateRegression("X", statsudf.MixtureConfig{N: 500, D: dims, Seed: 11}, 10, beta, 2); err != nil {
		t.Fatalf("generate: %v", err)
	}
	lr, err := sd.LinearRegression("X", statsudf.DimColumns(dims), "Y")
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := score.SaveLinReg(eng, "BETA", lr); err != nil {
		t.Fatalf("save model: %v", err)
	}

	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0", BatchRows: 64})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := openPool(t, srv.Addr(), "scorer", 1)

	// ORDER BY pins row order: the parallel scan's collection order is
	// nondeterministic without it, on both paths.
	sql := sqlgen.RegScoreUDF("X", "BETA", "i", sqlgen.Dims(dims)) + " ORDER BY i"
	local, err := eng.Exec(sql)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	remote, err := p.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("over the wire: %v", err)
	}
	requireBitIdentical(t, remote, local)
}

// requireBitIdentical fails t unless the wire result has the
// in-process result's schema and bit-identical rows.
func requireBitIdentical(t *testing.T, remote *client.Rows, local *exec.Result) {
	t.Helper()
	if remote.Schema.String() != local.Schema.String() {
		t.Fatalf("schema mismatch: wire %s, in-process %s", remote.Schema, local.Schema)
	}
	if len(remote.Rows) != len(local.Rows) {
		t.Fatalf("row count mismatch: wire %d, in-process %d", len(remote.Rows), len(local.Rows))
	}
	for i := range local.Rows {
		for j := range local.Rows[i] {
			a, b := local.Rows[i][j], remote.Rows[i][j]
			if a.Type() != b.Type() {
				t.Fatalf("row %d col %d: type %v != %v", i, j, a.Type(), b.Type())
			}
			af, aok := a.Float()
			bf, bok := b.Float()
			if aok != bok || (aok && math.Float64bits(af) != math.Float64bits(bf)) {
				t.Fatalf("row %d col %d: wire %v not bit-identical to in-process %v", i, j, b, a)
			}
			if a.Str() != b.Str() {
				t.Fatalf("row %d col %d: %q != %q", i, j, b.Str(), a.Str())
			}
		}
	}
}

// TestPointStatementByteIdentical runs serve_point's request shape — a
// linearregscore point lookup with its id bound to `?` — through
// Stmt.Query and through the in-process prepared plan, and requires the
// same rows bit for bit.
func TestPointStatementByteIdentical(t *testing.T) {
	sd, err := statsudf.Open(statsudf.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := sd.Engine()
	const dims, n = 4, 200
	beta := []float64{0.5, -1.25, 2, 0}
	if err := sd.GenerateRegression("X", statsudf.MixtureConfig{N: n, D: dims, Seed: 5}, 10, beta, 2); err != nil {
		t.Fatalf("generate: %v", err)
	}
	lr, err := sd.LinearRegression("X", statsudf.DimColumns(dims), "Y")
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := score.SaveLinReg(eng, "BETA", lr); err != nil {
		t.Fatalf("save model: %v", err)
	}
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := openPool(t, srv.Addr(), "point", 2)

	sql := sqlgen.RegScoreUDF("X", "BETA", "i", sqlgen.Dims(dims)) + " WHERE X.i = ?"
	local, err := eng.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	stmt := p.Prepare(sql)
	for id := int64(0); id < n; id += 13 {
		want, err := local.Execute(sqltypes.NewBigInt(id))
		if err != nil {
			t.Fatalf("in-process id %d: %v", id, err)
		}
		if len(want.Rows) != 1 {
			t.Fatalf("in-process id %d: %d rows, want 1", id, len(want.Rows))
		}
		got, err := stmt.Query(context.Background(), sqltypes.NewBigInt(id))
		if err != nil {
			t.Fatalf("over the wire id %d: %v", id, err)
		}
		requireBitIdentical(t, got, want)
	}
}

func TestSysSessionsVisible(t *testing.T) {
	_, srv := startServer(t, server.Config{})
	p := openPool(t, srv.Addr(), "watcher", 1)

	rows, err := p.Query(context.Background(), "SELECT id, user_name, remote_addr, current_sql FROM sys.sessions ORDER BY id")
	if err != nil {
		t.Fatalf("sys.sessions: %v", err)
	}
	if len(rows.Rows) != 1 {
		t.Fatalf("%d sessions visible, want 1", len(rows.Rows))
	}
	r := rows.Rows[0]
	if r[1].Str() != "watcher" {
		t.Fatalf("user_name = %q, want watcher", r[1].Str())
	}
	if !strings.HasPrefix(r[2].Str(), "127.0.0.1:") {
		t.Fatalf("remote_addr = %q", r[2].Str())
	}
	// The session observes its own in-flight statement.
	if !strings.Contains(r[3].Str(), "sys.sessions") {
		t.Fatalf("current_sql = %q, want the sys.sessions query itself", r[3].Str())
	}
}

// registerBlocker installs a scalar UDF that parks every call until
// release is closed, for admission and cancellation tests.
func registerBlocker(t *testing.T, eng *db.DB) (entered *atomic.Int64, release chan struct{}) {
	t.Helper()
	entered = new(atomic.Int64)
	release = make(chan struct{})
	err := eng.Scalars().Register(expr.FuncDef{
		Name: "block1", MinArgs: 1, MaxArgs: 1, UDF: true,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
			entered.Add(1)
			<-release
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatalf("register blocker: %v", err)
	}
	return entered, release
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionOverflow drives the server to its concurrent-statement
// limit and requires the statement after the last slot to fail fast
// with the typed busy error: 50 in flight, the 51st rejected.
func TestAdmissionOverflow(t *testing.T) {
	const limit = 50
	eng, srv := startServer(t, server.Config{MaxStatements: limit, MaxWaiting: -1})
	entered, release := registerBlocker(t, eng)
	if _, err := eng.Exec("CREATE TABLE T (v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO T VALUES (1.0)"); err != nil {
		t.Fatal(err)
	}

	p := openPool(t, srv.Addr(), "load", limit+1)
	var wg sync.WaitGroup
	errs := make(chan error, limit)
	for i := 0; i < limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Query(context.Background(), "SELECT block1(v) FROM T")
			errs <- err
		}()
	}
	// All 50 slots are held once every statement has parked in the UDF.
	waitFor(t, "50 statements in flight", func() bool { return entered.Load() == limit })

	start := time.Now()
	_, err := p.Query(context.Background(), "SELECT block1(v) FROM T")
	if !client.IsBusy(err) {
		t.Fatalf("51st statement: got %v, want typed busy error", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("busy rejection took %v; admission control must fail fast", d)
	}

	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted statement failed: %v", err)
		}
	}
}

// TestConcurrentSessions exercises 50 concurrent client sessions doing
// real statements; run under -race this is the serving layer's
// concurrency check.
func TestConcurrentSessions(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	if _, err := eng.Exec("CREATE TABLE N (i BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO N VALUES (%d, %d.25)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	const sessions = 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p, err := client.Open(client.Config{Addr: srv.Addr(), User: fmt.Sprintf("u%d", id), PoolSize: 1})
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			ctx := context.Background()
			for rep := 0; rep < 3; rep++ {
				rows, err := p.Query(ctx, "SELECT i, v FROM N ORDER BY i")
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", id, err)
					return
				}
				if len(rows.Rows) != 40 {
					errs <- fmt.Errorf("session %d: %d rows", id, len(rows.Rows))
					return
				}
				if _, err := p.Query(ctx, "SELECT id FROM sys.sessions"); err != nil {
					errs <- fmt.Errorf("session %d sys.sessions: %w", id, err)
					return
				}
				if err := p.Ping(ctx); err != nil {
					errs <- fmt.Errorf("session %d ping: %w", id, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelOnDisconnect drops a connection mid-statement and requires
// the server to cancel the statement's context: the query ring must
// record the statement as cancelled, not completed.
func TestCancelOnDisconnect(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	entered, release := registerBlocker(t, eng)
	if _, err := eng.Exec("CREATE TABLE T (v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d.0)", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Raw connection so we can sever it abruptly mid-statement.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(nc)
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "dropper"})); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgWelcome {
		t.Fatalf("handshake: %v %v", f, err)
	}
	stmt := "SELECT block1(v) FROM T"
	if err := wc.Send(wire.MsgQuery, statementFrame(t, stmt)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "statement to park in the UDF", func() bool { return entered.Load() >= 1 })
	nc.Close()
	// Give the reader a moment to notice and cancel, then let the
	// parked UDF calls return so the scan hits its next ctx check.
	time.Sleep(20 * time.Millisecond)
	close(release)

	waitFor(t, "cancelled statement in the query ring", func() bool {
		for _, r := range eng.RecentQueries() {
			if r.SQL == stmt && strings.Contains(r.Err, "context canceled") {
				return true
			}
		}
		return false
	})
}

// TestSessionUnwindsOnAbruptDisconnect reproduces the dropped-read-
// error interleaving: a client pipelines a second request behind a
// parked statement and vanishes mid-flight. The reader's terminal
// error is dropped (the frames channel already holds the second
// request), so only the cancelled session context can unwind the
// handler; the session must leave sys.sessions rather than leak its
// goroutine, connection, and registry row until server shutdown.
func TestSessionUnwindsOnAbruptDisconnect(t *testing.T) {
	eng, srv := startServer(t, server.Config{})
	entered, release := registerBlocker(t, eng)
	if _, err := eng.Exec("CREATE TABLE T (v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO T VALUES (1.0)"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(nc)
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: "vanisher"})); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.Recv(); err != nil || f.Type != wire.MsgWelcome {
		t.Fatalf("handshake: %v %v", f, err)
	}
	// The first request parks in the UDF; the second sits buffered in
	// the server's frames channel when the disconnect error arrives.
	if err := wc.Send(wire.MsgQuery, statementFrame(t, "SELECT block1(v) FROM T")); err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.MsgQuery, statementFrame(t, "SELECT v FROM T")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "statement to park in the UDF", func() bool { return entered.Load() >= 1 })
	nc.Close()
	// Let the reader hit its terminal error (and drop it), then let the
	// parked statement run to its next ctx check.
	time.Sleep(20 * time.Millisecond)
	close(release)

	p := openPool(t, srv.Addr(), "watcher", 1)
	waitFor(t, "the dead session to leave sys.sessions", func() bool {
		rows, err := p.Query(context.Background(), "SELECT user_name FROM sys.sessions")
		if err != nil {
			return false
		}
		for _, r := range rows.Rows {
			if r[0].Str() == "vanisher" {
				return false
			}
		}
		return len(rows.Rows) > 0
	})
}

func TestErrorClassification(t *testing.T) {
	_, srv := startServer(t, server.Config{})
	p := openPool(t, srv.Addr(), "tester", 1)
	ctx := context.Background()

	cases := []struct {
		sql  string
		code string
	}{
		{"SELEC nope", "parse"},
		{"SELECT no_such_col FROM sys.tables", "sema"},
	}
	for _, tc := range cases {
		_, err := p.Query(ctx, tc.sql)
		var we *client.Error
		if !asClientError(err, &we) {
			t.Fatalf("%q: got %v, want typed wire error", tc.sql, err)
		}
		if we.Code != tc.code {
			t.Fatalf("%q: code %q, want %q (%s)", tc.sql, we.Code, tc.code, we.Message)
		}
	}
	// The connection survives server-reported statement errors.
	if err := p.Ping(ctx); err != nil {
		t.Fatalf("ping after errors: %v", err)
	}
}

func asClientError(err error, target **client.Error) bool {
	for err != nil {
		if we, ok := err.(*client.Error); ok {
			*target = we
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestGracefulShutdown(t *testing.T) {
	_, srv := startServer(t, server.Config{})
	p := openPool(t, srv.Addr(), "tester", 1)
	mustExecWire(t, p, "CREATE TABLE G (v DOUBLE)")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is gone: new connections are refused.
	if _, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
