package db

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// viewFixture builds base tables shaped like the paper's §3.6 example:
// a customer reference table and a transaction table the analysis
// dimensions are derived from.
func viewFixture(t *testing.T, d *DB) {
	t.Helper()
	mustExec(t, d, "CREATE TABLE cust (id BIGINT, state VARCHAR, active BIGINT)")
	mustExec(t, d, "CREATE TABLE tx (id BIGINT, amount DOUBLE)")
	for i := 1; i <= 12; i++ {
		state := "tx"
		if i%3 == 0 {
			state = "ca"
		}
		active := i % 2
		mustExec(t, d, sprintf("INSERT INTO cust VALUES (%d, '%s', %d)", i, state, active))
		mustExec(t, d, sprintf("INSERT INTO tx VALUES (%d, %d.5)", i, i*10))
	}
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func TestCreateAndSelectSimpleView(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	mustExec(t, d, `CREATE VIEW v AS SELECT cust.id AS i,
		CASE WHEN active = 1 THEN 1.0 ELSE 0.0 END AS is_active,
		amount * 2 AS double_amount
		FROM cust CROSS JOIN tx WHERE cust.id = tx.id`)
	rows := query(t, d, "SELECT i, is_active, double_amount FROM v ORDER BY i")
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][1] != "1" || rows[0][2] != "21" { // id=1: active, 10.5*2
		t.Fatalf("row = %v", rows[0])
	}
	// View columns work in WHERE and expressions.
	rows = query(t, d, "SELECT count(*) FROM v WHERE is_active = 1 AND double_amount > 100")
	// ids 1..12; active = odd id; double_amount = 21·id > 100 → id ≥ 5;
	// odd ids ≥ 5 are 5, 7, 9, 11 → count 4.
	if rows[0][0] != "4" {
		t.Fatalf("count = %v", rows[0])
	}
}

func TestViewAggregation(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	mustExec(t, d, `CREATE VIEW v AS SELECT cust.id AS i, amount AS amt, state AS st
		FROM cust CROSS JOIN tx WHERE cust.id = tx.id`)
	// Aggregate over the view with GROUP BY on a view column.
	rows := query(t, d, "SELECT st, count(*), sum(amt) FROM v GROUP BY st ORDER BY st")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "ca" || rows[0][1] != "4" {
		t.Fatalf("ca group = %v", rows[0])
	}
	// sum over tx states: ids 3,6,9,12 → (30+60+90+120)+4*0.5 = 302
	if math.Abs(parseF(t, rows[0][2])-302) > 1e-9 {
		t.Fatalf("ca sum = %v", rows[0][2])
	}
}

func TestViewWithUDFOverIt(t *testing.T) {
	// The paper's real use: the summary UDF scanning a derived view.
	d := openTest(t)
	viewFixture(t, d)
	if err := d.Aggregates().Register(sumPairAgg{}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, `CREATE VIEW xv AS SELECT amount AS X1, amount * amount AS X2
		FROM cust CROSS JOIN tx WHERE cust.id = tx.id`)
	rows := query(t, d, "SELECT sumpair(X1, X2) FROM xv")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestViewStar(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	mustExec(t, d, `CREATE VIEW v AS SELECT id AS i, amount AS amt FROM tx`)
	rows := query(t, d, "SELECT * FROM v ORDER BY i LIMIT 2")
	if len(rows) != 2 || len(rows[0]) != 2 || rows[0][1] != "10.5" {
		t.Fatalf("rows = %v", rows)
	}
	rows = query(t, d, "SELECT v.* FROM v ORDER BY i LIMIT 1")
	if len(rows) != 1 || len(rows[0]) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestNestedViews(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	mustExec(t, d, "CREATE VIEW v1 AS SELECT id AS i, amount AS a FROM tx WHERE amount > 50")
	mustExec(t, d, "CREATE VIEW v2 AS SELECT i, a * 10 AS big FROM v1 WHERE a < 100")
	rows := query(t, d, "SELECT i, big FROM v2 ORDER BY i")
	// amount = 10·id + 0.5 ∈ (50, 100) → ids 5..9.
	if len(rows) != 5 || rows[0][0] != "5" || rows[4][0] != "9" {
		t.Fatalf("rows = %v", rows)
	}
	if math.Abs(parseF(t, rows[0][1])-505) > 1e-9 {
		t.Fatalf("big = %v", rows[0][1])
	}
}

func TestViewJoinedWithTable(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	mustExec(t, d, "CREATE VIEW v AS SELECT id AS i, amount AS amt FROM tx")
	rows := query(t, d, `SELECT cust.id, amt FROM cust CROSS JOIN v
	                     WHERE cust.id = v.i AND cust.active = 1 ORDER BY cust.id`)
	if len(rows) != 6 { // odd ids
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertSelectFromView(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	mustExec(t, d, "CREATE VIEW v AS SELECT id AS i, amount AS amt FROM tx")
	mustExec(t, d, "CREATE TABLE copy (i BIGINT, amt DOUBLE)")
	mustExec(t, d, "INSERT INTO copy SELECT i, amt FROM v WHERE i <= 3")
	rows := query(t, d, "SELECT count(*) FROM copy")
	if rows[0][0] != "3" {
		t.Fatalf("count = %v", rows[0])
	}
}

func TestViewValidation(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	bad := []string{
		"CREATE VIEW b1 AS SELECT * FROM tx",                    // star outputs
		"CREATE VIEW b2 AS SELECT sum(amount) AS s FROM tx",     // aggregate
		"CREATE VIEW b3 AS SELECT id AS i FROM tx GROUP BY id",  // group by
		"CREATE VIEW b4 AS SELECT id AS i FROM tx ORDER BY id",  // order by
		"CREATE VIEW b5 AS SELECT id AS i FROM tx LIMIT 3",      // limit
		"CREATE VIEW b6 AS SELECT id + 1 FROM tx",               // unnamed expr
		"CREATE VIEW b7 AS SELECT id AS a, amount AS a FROM tx", // dup outputs
		"CREATE VIEW b8 AS SELECT 1 AS one",                     // no FROM
	}
	for _, sql := range bad {
		if _, err := d.Exec(sql); err == nil {
			t.Errorf("%q must fail", sql)
		}
	}
	mustExec(t, d, "CREATE VIEW ok AS SELECT id AS i FROM tx")
	if _, err := d.Exec("CREATE VIEW ok AS SELECT id AS i FROM tx"); err == nil {
		t.Error("duplicate view must fail")
	}
	if _, err := d.Exec("CREATE VIEW tx AS SELECT id AS i FROM cust"); err == nil {
		t.Error("view shadowing a table must fail")
	}
	if _, err := d.Exec("DROP VIEW nope"); err == nil {
		t.Error("dropping a missing view must fail")
	}
	mustExec(t, d, "DROP VIEW IF EXISTS nope")
	mustExec(t, d, "DROP VIEW ok")
	if d.HasView("ok") {
		t.Error("view survived drop")
	}
}

// namedAgg registers the sumpair test aggregate under another name.
type namedAgg struct {
	sumPairAgg
	name string
}

func (n namedAgg) Name() string { return n.name }

// TestViewRejectsEveryAggregate: a view body is inlined as row
// expressions, so CREATE VIEW refuses an aggregate call of any kind —
// built-in or registered UDF, in any case, at the top of an item or
// nested inside a scalar call. An aggregate UDF used to slip through
// and `SELECT count(*) FROM v` then answered with the base table's row
// count.
func TestViewRejectsEveryAggregate(t *testing.T) {
	d := openTest(t)
	viewFixture(t, d)
	for _, name := range []string{"nlq_list", "nlq_str", "nlq_block", "hist"} {
		if err := d.Aggregates().Register(namedAgg{name: name}); err != nil {
			t.Fatal(err)
		}
	}
	for _, item := range []string{
		"sum(amount)", "COUNT(*)", "Avg(amount)", "min(amount)", "MAX(amount)",
		"nlq_list(2, 'triang', id, amount)", "NLQ_LIST(2, 'triang', id, amount)",
		"nlq_str(id, amount)", "Nlq_Block(id, amount)", "hist(id, amount)",
		"sqrt(sum(amount))", "abs(hist(id, amount)) + 1",
		"CASE WHEN id > 1 THEN nlq_str(id, amount) ELSE '' END",
		"power(id, 2) + CAST(HIST(id, amount) AS DOUBLE)",
	} {
		sql := "CREATE VIEW agg_v AS SELECT " + item + " AS s FROM tx"
		_, err := d.Exec(sql)
		if err == nil {
			t.Errorf("%q was accepted", sql)
			mustExec(t, d, "DROP VIEW agg_v")
			continue
		}
		if want := "views may not contain aggregates"; !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q, want it to say %q", sql, err, want)
		}
	}
	// A scalar call of the same shape is still a legal view column.
	mustExec(t, d, "CREATE VIEW ok_v AS SELECT sqrt(amount) AS s FROM tx")
	if rows := query(t, d, "SELECT count(*) FROM ok_v"); rows[0][0] != "12" {
		t.Fatalf("count over a scalar view = %v", rows[0])
	}
}

func TestViewPersistence(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDir(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d1, "CREATE TABLE tx (id BIGINT, amount DOUBLE)")
	mustExec(t, d1, "INSERT INTO tx VALUES (1, 10), (2, 20)")
	mustExec(t, d1, "CREATE VIEW v AS SELECT id AS i, amount * 2 AS dbl FROM tx WHERE amount > 5")

	d2, err := OpenDir(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := query(t, d2, "SELECT i, dbl FROM v ORDER BY i")
	if len(rows) != 2 || rows[1][1] != "40" {
		t.Fatalf("rows = %v", rows)
	}
	mustExec(t, d2, "DROP VIEW v")
	d3, err := OpenDir(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d3.HasView("v") {
		t.Fatal("dropped view resurrected")
	}
}
