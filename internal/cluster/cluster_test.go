package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/pkg/client"
)

// testCluster is one coordinator over an in-process shard fleet, plus
// a single-node reference engine fed the same statements — the oracle
// every distributed answer is compared against.
type testCluster struct {
	coord    *Coordinator
	srvs     []*server.Server
	shardDBs []*db.DB
	addrs    []string
	ref      *db.DB
}

func newTestCluster(t *testing.T, nShards, parts int) *testCluster {
	t.Helper()
	return newTestClusterColumnar(t, nShards, parts, false)
}

// newTestClusterColumnar optionally puts the shards' tables on disk,
// where eligible scans read column segments, while the single-node
// reference keeps its rows in memory, so every byte-identity assertion
// doubles as a row-versus-block equivalence check.
func newTestClusterColumnar(t *testing.T, nShards, parts int, columnar bool) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < nShards; i++ {
		opts := statsudf.Options{Partitions: 4}
		if columnar {
			opts.Dir = t.TempDir()
		}
		sd, err := statsudf.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sd.Close() })
		srv := server.New(sd.Engine(), server.Config{Addr: "127.0.0.1:0"})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		tc.srvs = append(tc.srvs, srv)
		tc.shardDBs = append(tc.shardDBs, sd.Engine())
		tc.addrs = append(tc.addrs, srv.Addr())
	}
	local, err := statsudf.Open(statsudf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	coord, err := New(local.Engine(), Config{
		Shards: tc.addrs, Partitions: parts, PoolSize: 2,
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	tc.coord = coord

	refDB, err := statsudf.Open(statsudf.Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refDB.Close() })
	tc.ref = refDB.Engine()
	return tc
}

// execBoth runs the same script through the coordinator and the
// single-node reference.
func (tc *testCluster) execBoth(t *testing.T, sql string) {
	t.Helper()
	if _, err := tc.coord.ExecScriptContext(context.Background(), sql); err != nil {
		t.Fatalf("coordinator: %s: %v", sql, err)
	}
	if _, err := tc.ref.ExecScriptContext(context.Background(), sql); err != nil {
		t.Fatalf("reference: %s: %v", sql, err)
	}
}

// queryBoth runs one SELECT on both engines and returns the two
// results.
func (tc *testCluster) queryBoth(t *testing.T, sql string) (got, want *exec.Result) {
	t.Helper()
	got, err := tc.coord.QueryContext(context.Background(), sql, nil)
	if err != nil {
		t.Fatalf("coordinator: %s: %v", sql, err)
	}
	want, err = tc.ref.QueryContext(context.Background(), sql, nil)
	if err != nil {
		t.Fatalf("reference: %s: %v", sql, err)
	}
	return got, want
}

// requireIdentical asserts the two results are byte-identical: same
// column names and the same rendered value in every cell.
func requireIdentical(t *testing.T, sql string, got, want *exec.Result) {
	t.Helper()
	if g, w := strings.Join(got.Schema.Names(), ","), strings.Join(want.Schema.Names(), ","); g != w {
		t.Fatalf("%s: schema %q, want %q", sql, g, w)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", sql, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j].String(), want.Rows[i][j].String()
			if g != w {
				t.Fatalf("%s: row %d col %d = %s, want %s", sql, i, j, g, w)
			}
		}
	}
}

// loadIntTable creates and loads a 3-column DOUBLE table with
// integer-valued data on both engines. Integer values make every
// partial-sum exact, so distributed answers must be byte-identical,
// not merely close.
func loadIntTable(t *testing.T, tc *testCluster, name string, rows int) {
	t.Helper()
	tc.execBoth(t, fmt.Sprintf("CREATE TABLE %s (a DOUBLE, b DOUBLE, y DOUBLE)", name))
	insertIntRows(t, tc, name, 0, rows)
}

// insertIntRows inserts loadIntTable's rows [from, to) in one statement.
func insertIntRows(t *testing.T, tc *testCluster, name string, from, to int) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", name)
	for i := from; i < to; i++ {
		if i > from {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", i, 2*i+1, 3*i-5)
	}
	tc.execBoth(t, b.String())
}

// chunkedShards is how many rows a columnar test cluster's first
// insert carries: two whole chunks for every shard partition.
func chunkedShards(tc *testCluster) int { return len(tc.shardDBs) * 4 * 2 * storage.ChunkRows }

// requireChunksAndTail fails unless every shard partition of table name
// holds whole sealed chunks and a tail.
func requireChunksAndTail(t *testing.T, tc *testCluster, name string) {
	t.Helper()
	for s, sd := range tc.shardDBs {
		tab, err := sd.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range tab.Segments() {
			if si.Rows < 2*storage.ChunkRows || si.TailRows == 0 {
				t.Fatalf("shard %d partition %+v: want whole chunks and a tail", s, si)
			}
		}
	}
}

func TestPushdownAggregatesByteIdentical(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			tc := newTestClusterColumnar(t, 2, 8, columnar)
			if columnar {
				// Whole sealed chunks in every shard partition, then a
				// tail.
				loadIntTable(t, tc, "z", chunkedShards(tc))
				insertIntRows(t, tc, "z", chunkedShards(tc), chunkedShards(tc)+97)
				requireChunksAndTail(t, tc, "z")
			} else {
				loadIntTable(t, tc, "z", 97)
			}

			for _, sql := range []string{
				"SELECT count(*), sum(a), min(a), max(b), avg(b) FROM z",
				"SELECT count(*) AS n, sum(y) AS sy FROM z WHERE a >= 10",
				"SELECT nlq_list(3, 'triangular', a, b, y) FROM z",
				"SELECT nlq_list(2, 'full', a, y) FROM z WHERE b < 100",
				"SELECT min(y), max(y), avg(a) FROM z WHERE a < 0", // empty input: NULL partials
				// Plain scans fan out row sets from the shards; columnar
				// shards serve them from vector programs.
				"SELECT a, b + y FROM z WHERE a < 40 ORDER BY 1",
			} {
				got, want := tc.queryBoth(t, sql)
				requireIdentical(t, sql, got, want)
				if got.Stats == nil || got.Stats.Root == nil {
					t.Fatalf("%s: coordinator result carries no span tree", sql)
				}
			}
			if pushdownStatements.Value() == 0 {
				t.Fatal("no statement took the push-down path")
			}
		})
	}
}

func TestRowsBalancedAcrossShards(t *testing.T) {
	tc := newTestCluster(t, 2, 8)
	loadIntTable(t, tc, "z", 96)
	var total int64
	for i, sd := range tc.shardDBs {
		tab, err := sd.Table("z")
		if err != nil {
			t.Fatal(err)
		}
		n := tab.NumRows()
		total += n
		// 96 rows over 8 partitions in 2 equal ranges: exactly half each.
		if n != 48 {
			t.Errorf("shard %d holds %d rows, want 48", i, n)
		}
	}
	if total != 96 {
		t.Fatalf("fleet holds %d rows, want 96", total)
	}
}

func TestGatherPathJoinsGroupByOrderBy(t *testing.T) {
	tc := newTestCluster(t, 3, 9)
	loadIntTable(t, tc, "z", 60)
	tc.execBoth(t, "CREATE TABLE g (a DOUBLE, w DOUBLE)")
	var b strings.Builder
	b.WriteString("INSERT INTO g VALUES ")
	for i := 0; i < 60; i += 3 {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i*i)
	}
	tc.execBoth(t, b.String())

	for _, sql := range []string{
		"SELECT a, b FROM z ORDER BY a DESC LIMIT 5",
		"SELECT z.a, z.y, g.w FROM z, g WHERE z.a = g.a ORDER BY z.a",
		"SELECT y, count(*) AS n FROM z GROUP BY y ORDER BY y LIMIT 7",
		"SELECT sum(z.y * g.w) FROM z, g WHERE z.a = g.a",
	} {
		got, want := tc.queryBoth(t, sql)
		requireIdentical(t, sql, got, want)
	}
	if gatherRows.Value() == 0 {
		t.Fatal("no statement took the gather path")
	}
}

func TestInsertSelectScoringMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, 2, 8)
	loadIntTable(t, tc, "z", 50)
	tc.execBoth(t, "CREATE TABLE scored (a DOUBLE, s DOUBLE)")
	tc.execBoth(t, "INSERT INTO scored SELECT a, 2*a + b - y FROM z")
	got, want := tc.queryBoth(t, "SELECT count(*), sum(s), min(s), max(s) FROM scored")
	requireIdentical(t, "scored aggregate", got, want)
	got, want = tc.queryBoth(t, "SELECT a, s FROM scored ORDER BY a")
	requireIdentical(t, "scored rows", got, want)
}

// TestMergedModelMatchesSingleNodeRandomized is the distributed-merge
// property test: across randomized shard counts, partition counts, row
// counts and data, the coordinator-merged n/L/Q and the linear model
// solved from it must match the single-node computation within 1e-9.
func TestMergedModelMatchesSingleNodeRandomized(t *testing.T) {
	const tol = 1e-9
	for _, cfg := range []struct {
		shards, parts, seed int
		columnar            bool
	}{
		{1, 3, 101, false}, {2, 5, 202, false}, {3, 7, 303, false}, {4, 8, 404, false},
		// Columnar shards against the row-wise reference: shard-local
		// block kernels must merge to the same model.
		{2, 5, 505, true}, {3, 7, 606, true},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("shards=%d parts=%d columnar=%v", cfg.shards, cfg.parts, cfg.columnar), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(cfg.seed)))
			tc := newTestClusterColumnar(t, cfg.shards, cfg.parts, cfg.columnar)
			tc.execBoth(t, "CREATE TABLE m (x1 DOUBLE, x2 DOUBLE, y DOUBLE)")
			insert := func(nRows int) {
				var b strings.Builder
				b.WriteString("INSERT INTO m VALUES ")
				for i := 0; i < nRows; i++ {
					if i > 0 {
						b.WriteString(", ")
					}
					x1, x2 := rnd.NormFloat64()*3, rnd.Float64()*10-5
					y := 2.5*x1 - 1.25*x2 + 4 + rnd.NormFloat64()*0.5
					fmt.Fprintf(&b, "(%s, %s, %s)",
						strconv.FormatFloat(x1, 'g', -1, 64),
						strconv.FormatFloat(x2, 'g', -1, 64),
						strconv.FormatFloat(y, 'g', -1, 64))
				}
				tc.execBoth(t, b.String())
			}
			if cfg.columnar {
				// Whole sealed chunks in every shard partition first, of
				// 0/1 cells: their sums are exact in any order, so the
				// tolerance below still bounds the random rows' rounding.
				var b strings.Builder
				b.WriteString("INSERT INTO m VALUES ")
				for i := 0; i < chunkedShards(tc); i++ {
					if i > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(&b, "(%d, %d, %d)", i%2, i/2%2, i/4%2)
				}
				tc.execBoth(t, b.String())
			}
			insert(50 + rnd.Intn(150))
			if cfg.columnar {
				requireChunksAndTail(t, tc, "m")
			}

			ctx := context.Background()
			got, _, err := tc.coord.SummaryNLQ(ctx, "m", nil, core.Triangular)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := tc.ref.SummaryNLQ(ctx, "m", nil, core.Triangular)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N || got.D != want.D {
				t.Fatalf("merged n=%v d=%d, want n=%v d=%d", got.N, got.D, want.N, want.D)
			}
			requireClose(t, "L", got.L, want.L, tol)
			requireClose(t, "Q", got.Q, want.Q, tol)
			requireClose(t, "Min", got.Min, want.Min, 0)
			requireClose(t, "Max", got.Max, want.Max, 0)

			gm, err := core.BuildLinReg(got)
			if err != nil {
				t.Fatal(err)
			}
			wm, err := core.BuildLinReg(want)
			if err != nil {
				t.Fatal(err)
			}
			requireClose(t, "Beta", gm.Beta, wm.Beta, tol)
		})
	}
}

func requireClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol || (tol == 0 && got[i] != want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (|Δ|=%g > %g)", what, i, got[i], want[i], d, tol)
		}
	}
}

// TestCoordinatorOverTheWire serves the coordinator itself through the
// wire protocol and drives it with a pooled client: DDL, loads,
// push-down builds, the Summary frame, and `?` arguments all cross the
// network twice (client → coordinator → shards).
func TestCoordinatorOverTheWire(t *testing.T) {
	tc := newTestCluster(t, 2, 8)
	loadIntTable(t, tc, "z", 40)

	srv := server.New(tc.coord, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "e2e", PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })

	ctx := context.Background()
	// Repeated text is re-planned by the coordinator every time.
	for i := 0; i < 4; i++ {
		rows, err := pool.Query(ctx, "SELECT count(*), sum(a) FROM z")
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := rows.Rows[0][0].String(); got != "40" {
			t.Fatalf("query %d: count = %s, want 40", i, got)
		}
	}

	// A statement with `?` arguments has them bound by the coordinator
	// and answers byte for byte as the single node does.
	const param = "SELECT count(*) FROM z WHERE a > ?"
	bound, err := pool.Prepare(param).Query(ctx, sqltypes.NewBigInt(3))
	if err != nil {
		t.Fatalf("Stmt.Query through the coordinator: %v", err)
	}
	single, err := tc.ref.QueryContext(ctx, param, nil, sqltypes.NewBigInt(3))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, param, &exec.Result{Schema: bound.Schema, Rows: bound.Rows}, single)

	// The protocol-3 Summary frame against the coordinator merges
	// shard caches; against the reference it reads one cache.
	got, _, err := pool.Summary(ctx, "z", nil, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := tc.ref.SummaryNLQ(ctx, "z", nil, core.Triangular)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pack() != want.Pack() {
		t.Fatalf("wire-merged summary %q != single-node %q", got.Pack(), want.Pack())
	}

	// sys.shards is served by the coordinator's local instance.
	rows, err := pool.Query(ctx, "SELECT shard_id, state FROM sys.shards")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("sys.shards: %d rows, want 2", len(rows.Rows))
	}
	for _, r := range rows.Rows {
		if r[1].Str() != "up" {
			t.Fatalf("shard %s state %q, want up", r[0].String(), r[1].Str())
		}
	}
}

func TestShardFailureTypedErrorMarkdownAndRevival(t *testing.T) {
	tc := newTestCluster(t, 2, 4)
	loadIntTable(t, tc, "z", 30)
	ctx := context.Background()

	// Keep shard 1's engine; kill its listener.
	downEngine := tc.shardDBs[1]
	tc.srvs[1].Close()

	// Every attempt fails with the typed error — never a hang, never an
	// untyped transport error.
	for i := 0; i < markDownAfter+1; i++ {
		_, err := tc.coord.ExecScriptContext(ctx, "SELECT count(*) FROM z")
		if err == nil {
			t.Fatalf("attempt %d: statement succeeded with a dead shard", i)
		}
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeShardUnavailable {
			t.Fatalf("attempt %d: error %v, want code %s", i, err, wire.CodeShardUnavailable)
		}
	}

	// The failure streak crossed the threshold: sys.shards shows the
	// mark-down.
	res, err := tc.coord.QueryContext(ctx, "SELECT state FROM sys.shards ORDER BY shard_id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[1][0].Str(); got != "down" {
		t.Fatalf("shard 1 state %q, want down", got)
	}
	if got := res.Rows[0][0].Str(); got != "up" {
		t.Fatalf("shard 0 state %q, want up (sibling cancellation must not count against health)", got)
	}

	// Marked down ⇒ fail fast with the same typed error.
	if _, err := tc.coord.ExecScriptContext(ctx, "SELECT sum(a) FROM z"); err == nil {
		t.Fatal("marked-down shard did not fail the statement")
	}

	// Revive the shard on its old address; the prober must re-admit it
	// and statements must heal without coordinator restart.
	srv2 := server.New(downEngine, server.Config{Addr: tc.addrs[1]})
	if err := srv2.Start(); err != nil {
		t.Fatalf("revive shard listener: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tc.coord.ExecScriptContext(ctx, "SELECT count(*) FROM z"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never revived")
		}
		time.Sleep(25 * time.Millisecond)
	}
	got, want := tc.queryBoth(t, "SELECT count(*), sum(y) FROM z")
	requireIdentical(t, "post-revival aggregate", got, want)
}

// TestShardClosedWhileRequestAdmitted closes a shard while the
// coordinator's request is admitted to it, queued behind a statement
// that holds the shard's one execution slot. A closing shard answers
// with its typed shutdown error or drops the connection, whichever wins
// the race; either way the statement fails with CodeShardUnavailable,
// and the failure is charged to that shard's health and to no other.
func TestShardClosedWhileRequestAdmitted(t *testing.T) {
	hold, held := make(chan struct{}), make(chan struct{})
	var srvs []*server.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		sd, err := statsudf.Open(statsudf.Options{Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sd.Close() })
		cfg := server.Config{Addr: "127.0.0.1:0"}
		if i == 1 {
			cfg.MaxStatements, cfg.MaxWaiting = 1, 1
			err := sd.Engine().Scalars().Register(expr.FuncDef{Name: "hold", Fn: func([]sqltypes.Value) (sqltypes.Value, error) {
				close(held)
				<-hold
				return sqltypes.NewBigInt(1), nil
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		srv := server.New(sd.Engine(), cfg)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs, addrs = append(srvs, srv), append(addrs, srv.Addr())
	}
	local, err := statsudf.Open(statsudf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	coord, err := New(local.Engine(), Config{Shards: addrs, Partitions: 4, PoolSize: 2, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ctx := context.Background()
	if _, err := coord.ExecScriptContext(ctx, "CREATE TABLE z (a BIGINT); INSERT INTO z VALUES (1), (2), (3), (4)"); err != nil {
		t.Fatal(err)
	}

	// Take shard 1's one execution slot.
	direct, err := client.Open(client.Config{Addr: addrs[1], User: "hold", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	go direct.Query(ctx, "SELECT hold()")
	<-held

	errc := make(chan error, 1)
	go func() {
		_, err := coord.ExecScriptContext(ctx, "SELECT count(*) FROM z")
		errc <- err
	}()
	// Let the request reach shard 1's admission queue; any other timing
	// must end in the same typed error.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		srvs[1].Close()
		close(closed)
	}()
	err = <-errc
	close(hold)
	<-closed

	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeShardUnavailable {
		t.Fatalf("error %v, want code %s", err, wire.CodeShardUnavailable)
	}
	coord.shards.mu.RLock()
	fails := []int{coord.shards.shards[0].ConsecFails, coord.shards.shards[1].ConsecFails}
	coord.shards.mu.RUnlock()
	if fails[0] != 0 || fails[1] != 1 {
		t.Fatalf("consecutive failures per shard %v, want [0 1]", fails)
	}

	// The reply of a closing shard on its own: charged, and typed.
	if err := coord.shardCall(0, func() error { return &wire.Error{Code: wire.CodeShutdown, Message: "server shutting down"} }); !errors.As(err, &we) || we.Code != wire.CodeShardUnavailable {
		t.Fatalf("a shutdown reply from shard 0 came back as %v", err)
	}
	coord.shards.mu.RLock()
	defer coord.shards.mu.RUnlock()
	if n := coord.shards.shards[0].ConsecFails; n != 1 {
		t.Fatalf("shard 0 has %d consecutive failures after its shutdown reply, want 1", n)
	}
}

func TestCoordinatorRejectsViewsAndSysWrites(t *testing.T) {
	tc := newTestCluster(t, 2, 4)
	ctx := context.Background()
	if _, err := tc.coord.ExecScriptContext(ctx, "CREATE VIEW v AS SELECT 1"); err == nil {
		t.Fatal("CREATE VIEW accepted in coordinator mode")
	}
	if _, err := tc.coord.ExecScriptContext(ctx, "INSERT INTO sys.shards VALUES (1)"); err == nil {
		t.Fatal("INSERT into sys.* accepted")
	}
	if _, err := tc.coord.QueryContext(ctx, "SELECT ?", nil, sqltypes.NewBigInt(1), sqltypes.NewBigInt(2)); err == nil {
		t.Fatal("two arguments for one ? accepted in coordinator mode")
	}
}
