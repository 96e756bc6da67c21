package db

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine/exec"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
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

// bindFixture holds the base tables of the binding checks below. Column
// names are shared across tables on purpose (a, b, x), so unqualified
// names are ambiguous in some joins and unique in others.
var bindFixture = []string{
	"CREATE TABLE t1 (a DOUBLE, b DOUBLE)",
	"CREATE TABLE t2 (x DOUBLE, b DOUBLE)",
	"CREATE TABLE t3 (x DOUBLE)",
	"CREATE TABLE t5 (a DOUBLE, zz DOUBLE)",
	"INSERT INTO t1 VALUES (1, 10), (2, 20), (3, 30)",
	"INSERT INTO t2 VALUES (5, 50), (6, 60)",
	"INSERT INTO t3 VALUES (7)",
	"INSERT INTO t5 VALUES (7, 500)",
}

func openBindFixture(t testing.TB) *DB {
	t.Helper()
	d := Open(Options{Partitions: 2})
	for _, sql := range bindFixture {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return d
}

// wantErr runs sql and fails unless it errors with a message containing
// want.
func wantErr(t *testing.T, d *DB, sql, want string) {
	t.Helper()
	res, err := d.Exec(sql)
	if err == nil {
		t.Errorf("%s: returned %d rows, want an error containing %q", sql, len(res.Rows), want)
		return
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q, want it to contain %q", sql, err, want)
	}
}

// TestViewColumnsBindLikeTableColumns: a view's outputs are columns of
// one FROM entry, so an unqualified name another entry also has is
// ambiguous, and a view named twice without aliases is a duplicate, as
// for base tables.
func TestViewColumnsBindLikeTableColumns(t *testing.T) {
	d := openBindFixture(t)
	mustExec(t, d, "CREATE VIEW v AS SELECT a*2 AS x FROM t1")
	wantErr(t, d, "SELECT x FROM t2, t3", `ambiguous column "x"`)
	wantErr(t, d, "SELECT x FROM v, t2", `ambiguous column "x"`)
	wantErr(t, d, "SELECT a FROM t1, t1", "duplicate table name")
	wantErr(t, d, "SELECT x FROM v, v", "duplicate table name")
	if rows := query(t, d, "SELECT v.x, t2.x FROM v, t2 WHERE t2.x = 5 ORDER BY v.x"); len(rows) != 3 || rows[0][0] != "2" || rows[0][1] != "5" {
		t.Fatalf("qualified view and table columns = %v", rows)
	}
}

// TestViewBodyBindsInItsOwnFrom: a view body's column references
// resolve against the body's own FROM entries, never against the
// tables of the query that uses the view.
func TestViewBodyBindsInItsOwnFrom(t *testing.T) {
	d := openBindFixture(t)
	mustExec(t, d, "CREATE VIEW w AS SELECT zz AS y FROM t1, t2")
	wantErr(t, d, "SELECT y FROM w, t5", `unknown column "zz"`)
	mustExec(t, d, "CREATE VIEW u AS SELECT a AS y FROM t1, t2")
	rows := query(t, d, "SELECT y FROM u, t5 ORDER BY y")
	want := []string{"1", "1", "2", "2", "3", "3"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i, r := range rows {
		if r[0] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

// checkViewIsItsRows checks that view v, made by the CREATE VIEW
// statements views (the last defines v), answers every query as a table
// holding its rows would: it runs each query on that instance and on a
// second one where v is such a table, and both must return the same
// multiset of rows under the same column names, or fail with the same
// error class. A view that cannot be planned holds no rows: every query
// naming it must fail to plan. A view with no rows, or with a value that
// is not a number, gives no column types for the table, and a view that
// cannot be read at all gives no rows; such cases are not checked, and
// the result reports whether the case was.
func checkViewIsItsRows(t *testing.T, views, queries []string) bool {
	t.Helper()
	withView := openBindFixture(t)
	for _, sql := range views {
		if _, err := withView.Exec(sql); err != nil {
			return false
		}
	}
	p, err := withView.Prepare("SELECT * FROM v")
	if err != nil {
		for _, q := range queries {
			if !namesV(q) {
				continue
			}
			if qp, qerr := withView.Prepare(q); qerr == nil {
				qp.Close()
				t.Errorf("%s: planned over view v, which cannot be planned (%v)", q, err)
			}
		}
		return true
	}
	p.Close()
	rows, err := withView.Exec("SELECT * FROM v")
	if err != nil || len(rows.Rows) == 0 {
		return false
	}
	cols := append([]sqltypes.Column(nil), rows.Schema.Columns...)
	for i := range cols {
		cols[i].Type = sqltypes.TypeNull
		for _, r := range rows.Rows {
			switch typ := r[i].Type(); {
			case typ == sqltypes.TypeNull:
			case typ != sqltypes.TypeDouble && typ != sqltypes.TypeBigInt:
				return false
			case cols[i].Type == sqltypes.TypeNull:
				cols[i].Type = typ
			case cols[i].Type != typ:
				return false
			}
		}
		if cols[i].Type == sqltypes.TypeNull {
			cols[i].Type = sqltypes.TypeDouble
		}
	}
	asTable := openBindFixture(t)
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		t.Fatalf("view v's schema %v: %v", cols, err)
	}
	tab, err := asTable.CreateTable("v", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(rows.Rows...); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, gerr := withView.Exec(q)
		want, werr := asTable.Exec(q)
		switch {
		case gerr != nil || werr != nil:
			if gerr == nil || werr == nil || errClass(gerr) != errClass(werr) {
				t.Errorf("views %q\n%s:\n  over the view:  %v\n  over its rows:  %v", views, q, gerr, werr)
			}
		case !slices.Equal(got.Schema.Names(), want.Schema.Names()):
			t.Errorf("views %q\n%s: columns %v over the view, %v over its rows", views, q, got.Schema.Names(), want.Schema.Names())
		case !slices.Equal(rowMultiset(got), rowMultiset(want)):
			t.Errorf("views %q\n%s:\n  over the view: %v\n  over its rows: %v", views, q, rowMultiset(got), rowMultiset(want))
		}
	}
	return true
}

// namesV reports whether sql is a SELECT with v among its FROM entries.
func namesV(sql string) bool {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return false
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return false
	}
	for _, ref := range sel.From {
		if strings.EqualFold(ref.Name, "v") {
			return true
		}
	}
	return false
}

var errPosition = regexp.MustCompile(`^((sema|exec|db): |\d+:\d+: )+`)

// errClass is an error's first message without layer prefix or source
// position, up to its first quoted name or parenthesis.
func errClass(err error) string {
	msg, _, _ := strings.Cut(err.Error(), "\n")
	msg = errPosition.ReplaceAllString(msg, "")
	if i := strings.IndexAny(msg, `"(`); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// rowMultiset renders a result's rows, numbers to nine significant
// digits (sums may fold in another order), sorted.
func rowMultiset(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
			if typ := v.Type(); typ == sqltypes.TypeDouble || typ == sqltypes.TypeBigInt {
				f, _ := v.Float()
				cells[j] = strconv.FormatFloat(f, 'g', 9, 64)
			}
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}

// viewEntry is a FROM entry a generated statement may name: a table or
// view, and its columns.
type viewEntry struct {
	name string
	cols []string
}

var bindTables = []viewEntry{
	{"t1", []string{"a", "b"}},
	{"t2", []string{"x", "b"}},
	{"t3", []string{"x"}},
	{"t5", []string{"a", "zz"}},
}

// genViewBody generates a valid view body over one or two entries of
// pool (first, when given, is always the first): qualified and
// unqualified references, computed and bare items, output names that
// collide with base-table columns, and sometimes a WHERE.
func genViewBody(r *rand.Rand, pool []viewEntry, first *viewEntry) (string, []string) {
	var from []viewEntry
	var refs []string
	add := func(e viewEntry) {
		ref, name := e.name, e.name
		if r.Intn(4) == 0 || slices.ContainsFunc(from, func(f viewEntry) bool { return f.name == name }) {
			name = fmt.Sprintf("s%d", len(from))
			ref += " AS " + name
		}
		from = append(from, viewEntry{name, e.cols})
		refs = append(refs, ref)
	}
	if first != nil {
		add(*first)
	}
	for n := 1 + r.Intn(2); len(from) < n; {
		add(pool[r.Intn(len(pool))])
	}
	col := func() string {
		e := from[r.Intn(len(from))]
		c := e.cols[r.Intn(len(e.cols))]
		owners := 0
		for _, f := range from {
			for _, fc := range f.cols {
				if fc == c {
					owners++
				}
			}
		}
		if owners > 1 || r.Intn(2) == 0 {
			return e.name + "." + c
		}
		return c
	}
	var items, outs []string
	taken := func(name string) bool {
		for _, o := range outs {
			if o == name {
				return true
			}
		}
		return false
	}
	names := []string{"x", "y", "a", "b", "k"}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for k := 1 + r.Intn(3); len(items) < k; {
		var e string
		switch r.Intn(4) {
		case 0:
			e = col()
			bare := e[strings.LastIndexByte(e, '.')+1:]
			if r.Intn(2) == 0 && !taken(bare) {
				items, outs = append(items, e), append(outs, bare)
				continue
			}
		case 1:
			e = col() + " * 2"
		case 2:
			e = col() + " + " + col()
		default:
			e = col() + " - 1"
		}
		for _, name := range names {
			if !taken(name) {
				items, outs = append(items, e+" AS "+name), append(outs, name)
				break
			}
		}
	}
	body := "SELECT " + strings.Join(items, ", ") + " FROM " + strings.Join(refs, ", ")
	if r.Intn(2) == 0 {
		body += fmt.Sprintf(" WHERE %s > %d", col(), []int{0, 1, 2, 6, 40}[r.Intn(5)])
	}
	return body, outs
}

// genViewCase generates the views of one case, v sometimes over a
// nested view n, and queries over v: unqualified and qualified
// references, *, v.*, a join with a base table that shares column names,
// v twice with and without aliases, GROUP BY and ORDER BY.
func genViewCase(r *rand.Rand) (views, queries []string) {
	var first *viewEntry
	if r.Intn(3) == 0 {
		body, outs := genViewBody(r, bindTables, nil)
		views = append(views, "CREATE VIEW n AS "+body)
		first = &viewEntry{"n", outs}
	}
	body, outs := genViewBody(r, bindTables, first)
	views = append(views, "CREATE VIEW v AS "+body)
	o := func() string { return outs[r.Intn(len(outs))] }
	base := bindTables[r.Intn(len(bindTables))]
	bc := base.cols[r.Intn(len(base.cols))]
	g := o()
	queries = []string{
		"SELECT * FROM v",
		"SELECT v.* FROM v",
		"SELECT " + o() + " FROM v",
		"SELECT v." + o() + ", " + o() + " FROM v",
		fmt.Sprintf("SELECT %s, %s FROM v, %s", o(), bc, base.name),
		fmt.Sprintf("SELECT * FROM %s, v", base.name),
		fmt.Sprintf("SELECT v.*, %s.%s FROM v, %s WHERE v.%s > %s.%s", base.name, bc, base.name, o(), base.name, bc),
		"SELECT " + o() + " FROM v, v",
		fmt.Sprintf("SELECT v1.%s, v2.%s FROM v v1, v AS v2 WHERE v1.%s < v2.%s", o(), o(), o(), o()),
		fmt.Sprintf("SELECT %s, count(*), sum(%s) FROM v GROUP BY %s", g, o(), g),
		fmt.Sprintf("SELECT v.%s, count(*) FROM v GROUP BY %s", g, g),
		fmt.Sprintf("SELECT %s FROM v ORDER BY %s DESC", o(), o()),
		fmt.Sprintf("SELECT %s + 1 AS w FROM v WHERE %s > 2 ORDER BY w", o(), o()),
		fmt.Sprintf("SELECT count(*) FROM v, %s WHERE %s > %s", base.name, o(), bc),
	}
	return views, queries
}

// TestViewIsItsRows: over generated view bodies and queries, a view
// answers as the table of its rows (checkViewIsItsRows).
func TestViewIsItsRows(t *testing.T) {
	cases, checked := 150, 0
	if testing.Short() {
		cases = 40
	}
	for seed := 0; seed < cases; seed++ {
		views, queries := genViewCase(rand.New(rand.NewSource(int64(seed))))
		if checkViewIsItsRows(t, views, queries) {
			checked++
		}
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("%d of %d generated cases checked", checked, cases)
	if checked < cases/2 {
		t.Fatalf("only %d of %d generated cases were checked", checked, cases)
	}
}

// FuzzViewExpansion drives checkViewIsItsRows from fuzzed view bodies
// and queries. Queries that could tell the two instances apart by
// anything but v — writes, system tables, LIMIT without a total order —
// are skipped.
func FuzzViewExpansion(f *testing.F) {
	f.Add("SELECT a*2 AS x FROM t1", "SELECT x FROM v, t2")
	f.Add("SELECT a*2 AS x FROM t1", "SELECT x FROM v, v")
	f.Add("SELECT zz AS y FROM t1, t2", "SELECT y FROM v, t5")
	f.Add("SELECT a AS y FROM t1, t2", "SELECT y FROM v, t5")
	f.Fuzz(func(t *testing.T, body, query string) {
		stmt, err := sqlparser.Parse(query)
		if err != nil {
			return
		}
		sel, ok := stmt.(*sqlparser.Select)
		if !ok || sel.Limit != nil {
			return
		}
		for _, ref := range sel.From {
			if IsSystemTable(ref.Name) || strings.EqualFold(ref.Name, "n") {
				return
			}
		}
		checkViewIsItsRows(t, []string{"CREATE VIEW v AS " + body}, []string{query})
	})
}
