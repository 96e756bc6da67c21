package db

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

func preparedFixture(t *testing.T) *DB {
	t.Helper()
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE pts (i BIGINT, x DOUBLE, s VARCHAR)")
	for i := 0; i < 10; i++ {
		mustExec(t, d, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.5, 'r%d')", i, i, i))
	}
	return d
}

func TestPrepareExecuteSelect(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i, x FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", p.NumParams())
	}
	for i := 0; i < 10; i++ {
		res, err := p.Execute(sqltypes.NewBigInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i) {
			t.Fatalf("i=%d: rows %v", i, res.Rows)
		}
	}
	// Each execution sees fresh data, not a snapshot.
	mustExec(t, d, "INSERT INTO pts VALUES (3, 99.0, 'dup')")
	res, err := p.Execute(sqltypes.NewBigInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("after insert: %d rows, want 2", len(res.Rows))
	}
}

func TestPrepareExecuteInsert(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("INSERT INTO pts VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 100; i < 110; i++ {
		res, err := p.Execute(sqltypes.NewBigInt(int64(i)), sqltypes.NewDouble(0.5), sqltypes.NewVarChar("ins"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("affected %d", res.Affected)
		}
	}
	res, err := d.Exec("SELECT count(*) FROM pts WHERE s = 'ins'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("inserted rows: %v", res.Rows)
	}
}

func TestPrepareArgCount(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts WHERE i = ? AND x > ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Execute(sqltypes.NewBigInt(1)); err == nil {
		t.Fatal("accepted 1 arg for 2 slots")
	}
	if _, err := p.Execute(sqltypes.NewBigInt(1), sqltypes.NewDouble(0), sqltypes.NewDouble(0)); err == nil {
		t.Fatal("accepted 3 args for 2 slots")
	}
}

func TestPrepareRejectsBadStatements(t *testing.T) {
	d := preparedFixture(t)
	for _, sql := range []string{
		"SELECT nocolumn FROM pts",       // sema error at prepare time
		"SELECT i FROM pts WHERE",        // parse error
		"DROP TABLE pts",                 // DDL is not preparable
		"CREATE TABLE q (a BIGINT)",      // ditto
		"SELECT s + 1 FROM pts",          // type error
		"SELECT i FROM pts WHERE s = ?1", // not our placeholder syntax
	} {
		if _, err := d.Prepare(sql); err == nil {
			t.Errorf("Prepare(%q) succeeded", sql)
		}
	}
}

// Prepared errors must surface before any partition scan starts, on
// the prepared path exactly as on ad-hoc dispatch.
func TestPrepareRejectsBeforeScan(t *testing.T) {
	d := preparedFixture(t)
	tbl, err := d.Table("pts")
	if err != nil {
		t.Fatal(err)
	}
	tbl.ResetScannedRows()
	if _, err := d.Prepare("SELECT nope FROM pts"); err == nil {
		t.Fatal("expected sema error")
	}
	if n := tbl.ScannedRows(); n != 0 {
		t.Fatalf("prepare of a bad statement scanned %d rows", n)
	}
}

// TestPreparedStaleAfterDDL: a handle is its text, so a DDL between
// executions costs one re-plan, not an error, and the held handle
// answers from the catalog as it is now — here a pts dropped and
// recreated with other rows.
func TestPreparedStaleAfterDDL(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if res, err := p.Execute(sqltypes.NewBigInt(1)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("before DDL: %v %v", res, err)
	}
	mustExec(t, d, "CREATE TABLE other (a BIGINT)")
	mustExec(t, d, "DROP TABLE pts")
	mustExec(t, d, "CREATE TABLE pts (i BIGINT, x DOUBLE, s VARCHAR)")
	mustExec(t, d, "INSERT INTO pts VALUES (1, 0.5, 'a'), (1, 1.5, 'b'), (2, 2.5, 'c')")
	inv0 := obs.PlanCacheInvalidations.Value()
	for k := 0; k < 3; k++ {
		res, err := p.Execute(sqltypes.NewBigInt(1))
		if err != nil {
			t.Fatalf("after DDL: %v", err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("after DDL: rows %v, want the recreated table's two", res.Rows)
		}
	}
	if inv := obs.PlanCacheInvalidations.Value() - inv0; inv != 1 {
		t.Fatalf("three executions after DDL re-planned %d times, want 1", inv)
	}
}

func TestPreparedClosedErrors(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Execute(); err == nil {
		t.Fatal("Execute succeeded on a closed statement")
	}
}

func TestViewRejectsParams(t *testing.T) {
	d := preparedFixture(t)
	_, err := d.Exec("CREATE VIEW v AS SELECT i FROM pts WHERE i = ?")
	if err == nil || !strings.Contains(err.Error(), "?") {
		t.Fatalf("view with params: err = %v", err)
	}
}

func TestPlanCacheCounters(t *testing.T) {
	d := preparedFixture(t)
	hits0 := obs.PlanCacheHits.Value()
	misses0 := obs.PlanCacheMisses.Value()

	const q = "SELECT i, x FROM pts WHERE i = 4"
	if _, err := d.Exec(q); err != nil { // miss: first sighting plans and caches
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // five hits
		res, err := d.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows %v", res.Rows)
		}
	}
	if hits := obs.PlanCacheHits.Value() - hits0; hits < 5 {
		t.Fatalf("plan cache hits = %d, want >= 5", hits)
	}
	if misses := obs.PlanCacheMisses.Value() - misses0; misses < 1 {
		t.Fatalf("plan cache misses = %d, want >= 1", misses)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	d := preparedFixture(t)
	const q = "SELECT i FROM pts WHERE i = 1"
	for i := 0; i < 3; i++ {
		if _, err := d.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	inv0 := obs.PlanCacheInvalidations.Value()
	mustExec(t, d, "CREATE TABLE bump (a BIGINT)")
	// The next lookup sees the epoch moved and re-plans rather than
	// serving the stale entry.
	if _, err := d.Exec(q); err != nil {
		t.Fatal(err)
	}
	if inv := obs.PlanCacheInvalidations.Value() - inv0; inv < 1 {
		t.Fatalf("invalidations = %d, want >= 1", inv)
	}
	// DROP of a cached plan's own table must not let the old plan run.
	mustExec(t, d, "DROP TABLE pts")
	if _, err := d.Exec(q); err == nil {
		t.Fatal("query against dropped table served from the plan cache")
	}
}

func TestPlanCacheEviction(t *testing.T) {
	d := preparedFixture(t)
	ev0 := obs.PlanCacheEvictions.Value()
	// Overflow the LRU with distinct texts.
	for i := 0; i < defaultPlanCacheSize+10; i++ {
		if _, err := d.Exec(fmt.Sprintf("SELECT i FROM pts WHERE i = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if ev := obs.PlanCacheEvictions.Value() - ev0; ev < 10 {
		t.Fatalf("evictions = %d, want >= 10", ev)
	}
}

// TestSysPrepared: sys.prepared lists the plan cache. A prepared
// SELECT is one entry, its text, holding every execution; closing the
// handle leaves the entry to the other sightings of the text, and a DDL
// shows it stale until its next lookup re-plans it.
func TestSysPrepared(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Execute(sqltypes.NewBigInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.QueryContext(context.Background(), p.SQL(), nil, sqltypes.NewBigInt(4)); err != nil {
		t.Fatal(err)
	}
	p.Close()
	row := func() []string {
		t.Helper()
		got := query(t, d, "SELECT params, executions, stale FROM sys.prepared WHERE sql_text = '"+p.SQL()+"'")
		if len(got) != 1 {
			t.Fatalf("sys.prepared rows for the text: %v, want one", got)
		}
		return got[0]
	}
	if got := fmt.Sprint(row()); got != "[1 4 FALSE]" {
		t.Fatalf("sys.prepared (params, executions, stale) = %s, want [1 4 FALSE]", got)
	}
	mustExec(t, d, "CREATE TABLE other (a BIGINT)")
	if got := fmt.Sprint(row()); got != "[1 4 TRUE]" {
		t.Fatalf("after DDL: %s, want [1 4 TRUE]", got)
	}
	if _, err := d.QueryContext(context.Background(), p.SQL(), nil, sqltypes.NewBigInt(4)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(row()); got != "[1 1 FALSE]" {
		t.Fatalf("after the re-plan: %s, want [1 1 FALSE]", got)
	}
	for _, r := range query(t, d, "SELECT sql_text FROM sys.prepared") {
		if strings.Contains(r[0], "sys.") {
			t.Fatalf("sys.prepared lists a system-table read: %v", r)
		}
	}
}

// TestSysTablesNeverCached: system tables are materialized fresh per
// statement, so a cached sys.* plan would replay one frozen snapshot
// forever. Prepare of such text succeeds, but no plan of it is kept:
// every execution — of the handle or of the text — re-materializes.
func TestSysTablesNeverCached(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT id FROM sys.queries")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The sharp edge: sys.queries changes on every statement but no DDL
	// happens, so the catalog epoch never moves — a cached snapshot would
	// never be invalidated. Each read must see the queries before it.
	for _, count := range []func() (*exec.Result, error){
		func() (*exec.Result, error) { return p.Execute() },
		func() (*exec.Result, error) { return d.Exec(p.SQL()) },
	} {
		first, err := count()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec("SELECT i FROM pts WHERE i = 1"); err != nil {
			t.Fatal(err)
		}
		second, err := count()
		if err != nil {
			t.Fatal(err)
		}
		if len(second.Rows) <= len(first.Rows) {
			t.Fatalf("sys.queries served a stale snapshot: %d rows then %d", len(first.Rows), len(second.Rows))
		}
	}
}

// TestPreparedDDLRace interleaves EXECUTE with CREATE/DROP under -race:
// every execution must succeed on a plan of the catalog as it was at
// its lookup or re-plan — never execute against a mismatched schema or
// trip the race detector.
func TestPreparedDDLRace(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i, x FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var churn, workers sync.WaitGroup
	stop := make(chan struct{})
	churn.Add(1)
	go func() { // DDL churn: epoch moves constantly
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%4)
			d.Exec("CREATE TABLE " + name + " (a BIGINT)")
			d.Exec("DROP TABLE " + name)
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				res, err := p.Execute(sqltypes.NewBigInt(int64(i % 10)))
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				// Schema must always be the plan's two columns — a
				// mismatched-schema execution would betray a plan built
				// against one catalog running against another.
				if len(res.Schema.Columns) != 2 {
					t.Errorf("schema drifted: %v", res.Schema.Columns)
					return
				}
			}
		}(w)
	}
	// Plan-cache dispatch races the same churn.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < 100; i++ {
			if _, err := d.Exec("SELECT i FROM pts WHERE i = 1"); err != nil {
				t.Errorf("cached dispatch: %v", err)
				return
			}
		}
	}()
	workers.Wait()
	close(stop)
	churn.Wait()
}

// TestPreparedAggregateConcurrentArgs: a prepared aggregate compiles
// its worker and finalize evaluator sets once and pools them, so
// concurrent executions with different arguments must never read each
// other's `?` values (run under -race). The oracle is the same
// statement with literals, executed serially.
func TestPreparedAggregateConcurrentArgs(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i % 3, sum(x * ?) FROM pts GROUP BY i % 3 HAVING count(*) > ? ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const goroutines = 8
	want := make([][][]string, goroutines)
	for g := range want {
		want[g] = query(t, d, fmt.Sprintf("SELECT i %% 3, sum(x * %d) FROM pts GROUP BY i %% 3 HAVING count(*) > %d ORDER BY 1", g+1, g%4))
	}
	if len(want[0]) != 3 || len(want[3]) != 1 || len(want[7]) != 1 {
		t.Fatalf("fixture: HAVING thresholds select %d/%d/%d groups, want 3/1/1", len(want[0]), len(want[3]), len(want[7]))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := p.Execute(sqltypes.NewBigInt(int64(g+1)), sqltypes.NewBigInt(int64(g%4)))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got := make([][]string, len(res.Rows))
				for r, row := range res.Rows {
					for _, v := range row {
						got[r] = append(got[r], v.String())
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want[g]) {
					t.Errorf("goroutine %d: got %v, want %v", g, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPreparedAggregateStaleAfterRecreate: a plan captures its table
// handles, so a DROP/CREATE between executions must re-plan — on the
// held handle and on the text alike — never sum over the dropped table.
func TestPreparedAggregateStaleAfterRecreate(t *testing.T) {
	d := preparedFixture(t)
	const q = "SELECT sum(x), count(*) FROM pts"
	p, err := d.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before := query(t, d, q)
	if res, err := p.Execute(); err != nil || res.Rows[0][1].Int() != 10 {
		t.Fatalf("before DDL: %v %v", res, err)
	}
	mustExec(t, d, "DROP TABLE pts")
	mustExec(t, d, "CREATE TABLE pts (i BIGINT, x DOUBLE, s VARCHAR)")
	mustExec(t, d, "INSERT INTO pts VALUES (1, 100.0, 'new')")
	res, err := p.Execute()
	if err != nil {
		t.Fatalf("held handle after DROP/CREATE: %v", err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[100 1]]" {
		t.Fatalf("held handle after DROP/CREATE = %s, want the new table's [[100 1]]", got)
	}
	after := query(t, d, q)
	if fmt.Sprint(after) != "[[100 1]]" || fmt.Sprint(after) == fmt.Sprint(before) {
		t.Fatalf("text after DROP/CREATE = %v (before %v), want the new table's [[100 1]]", after, before)
	}
}
