package sqlgen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

func mustParseAll(t *testing.T, sqls ...string) {
	t.Helper()
	for _, s := range sqls {
		if _, err := sqlparser.Parse(s); err != nil {
			t.Fatalf("generated SQL does not parse: %v\n%s", err, s)
		}
	}
}

func TestDims(t *testing.T) {
	d := Dims(3)
	if len(d) != 3 || d[0] != "X1" || d[2] != "X3" {
		t.Fatalf("%v", d)
	}
}

func TestNLQQueryShape(t *testing.T) {
	for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
		q := NLQQuery("X", Dims(4), mt)
		mustParseAll(t, q)
		// 1 + d + d² select terms regardless of type (nulls pad).
		st, _ := sqlparser.Parse(q)
		items := st.(*sqlparser.Select).Items
		if len(items) != 1+4+16 {
			t.Fatalf("%v: %d items", mt, len(items))
		}
	}
	// Padding counts: triangular keeps lower triangle only.
	q := NLQQuery("X", Dims(4), core.Triangular)
	if got := strings.Count(q, "null"); got != 16-10 {
		t.Fatalf("triangular null padding = %d", got)
	}
	q = NLQQuery("X", Dims(4), core.Diagonal)
	if got := strings.Count(q, "null"); got != 16-4 {
		t.Fatalf("diagonal null padding = %d", got)
	}
	if strings.Contains(NLQQuery("X", Dims(4), core.Full), "null") {
		t.Fatal("full matrix should have no padding")
	}
}

func TestNLQQueriesPerCell(t *testing.T) {
	qs := NLQQueriesPerCell("X", Dims(4))
	want := 1 + 4 + 4*5/2
	if len(qs) != want {
		t.Fatalf("%d statements, want %d", len(qs), want)
	}
	mustParseAll(t, qs...)
}

func TestNLQUDFQueries(t *testing.T) {
	list := NLQUDFQuery("X", Dims(3), core.Triangular, ListStyle)
	if !strings.Contains(list, "nlq_list(3, 'triang', X1, X2, X3)") {
		t.Fatalf("list SQL: %s", list)
	}
	str := NLQUDFQuery("X", Dims(3), core.Full, StringStyle)
	if !strings.Contains(str, "nlq_str(3, 'full', CAST(X1 AS VARCHAR)") {
		t.Fatalf("string SQL: %s", str)
	}
	grp := NLQUDFGroupQuery("X", Dims(2), core.Diagonal, ListStyle, "i % 8")
	if !strings.Contains(grp, "GROUP BY i % 8") {
		t.Fatalf("group SQL: %s", grp)
	}
	mustParseAll(t, list, str, grp)
}

func TestNLQBlockQuery(t *testing.T) {
	plan, err := core.PlanBlocks(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := NLQBlockQuery("X", Dims(8), plan)
	mustParseAll(t, q)
	if got := strings.Count(q, "nlq_block("); got != plan.Calls() {
		t.Fatalf("%d calls in SQL, want %d", got, plan.Calls())
	}
	// Diagonal block passes 4 values; off-diagonal passes 8.
	if !strings.Contains(q, "nlq_block(0, 4, 0, 4, X1, X2, X3, X4)") {
		t.Fatalf("diagonal block call malformed:\n%s", q)
	}
	if !strings.Contains(q, "nlq_block(4, 8, 0, 4, X5, X6, X7, X8, X1, X2, X3, X4)") {
		t.Fatalf("off-diagonal block call malformed:\n%s", q)
	}
}

func TestScoringStatementsParse(t *testing.T) {
	dims := Dims(4)
	mustParseAll(t,
		RegScoreUDF("X", "BETA", "i", dims),
		RegScoreSQL("X", "BETA", "i", dims),
		PCAScoreUDF("X", "MU", "LAMBDA", "i", dims, 3),
		PCAScoreSQL("X", "MU", "LAMBDA", "i", dims, 3),
		ClusterScoreUDF("X", "C", "i", dims, 4),
	)
	stmts := ClusterScoreSQL("X", "C", "XD", "i", dims, 4)
	if len(stmts) != 4 {
		t.Fatalf("%d statements", len(stmts))
	}
	mustParseAll(t, stmts...)
	// The SQL variant is two data passes: one INSERT..SELECT scan of X
	// and one SELECT scan of the distance table.
	if !strings.Contains(stmts[2], "INSERT INTO XD") {
		t.Fatalf("missing distance materialization: %s", stmts[2])
	}
	if !strings.Contains(stmts[3], "CASE") {
		t.Fatalf("missing argmin CASE: %s", stmts[3])
	}
}

func TestClusterScoreSQLSingleCluster(t *testing.T) {
	stmts := ClusterScoreSQL("X", "C", "XD", "i", Dims(2), 1)
	mustParseAll(t, stmts...)
	if !strings.Contains(stmts[3], "WHEN TRUE THEN 1") {
		t.Fatalf("k=1 CASE: %s", stmts[3])
	}
}

func TestKMeansIterationQuery(t *testing.T) {
	q := KMeansIterationQuery("X", "C", Dims(2), 3)
	mustParseAll(t, q)
	// One scan: the assignment expression appears as both the group
	// key and the first select item.
	if strings.Count(q, "clusterscore(") != 2 {
		t.Fatalf("assignment expression should appear twice:\n%s", q)
	}
	if !strings.Contains(q, "GROUP BY clusterscore(") {
		t.Fatalf("missing GROUP BY on the assignment:\n%s", q)
	}
	if !strings.Contains(q, "nlq_list(2, 'diag'") {
		t.Fatalf("missing diagonal summary aggregate:\n%s", q)
	}
	if got := strings.Count(q, "kdistance("); got != 6 { // k per appearance
		t.Fatalf("%d kdistance calls, want 6:\n%s", got, q)
	}
}

func TestPassStyleString(t *testing.T) {
	if ListStyle.String() != "list" || StringStyle.String() != "string" {
		t.Fatal("style names changed")
	}
}

// TestDecodeNLQRow checks the decoder against the generator it lives
// beside: a row shaped by NLQQuery's own NULL padding decodes to
// exactly the cells the query computed, for every matrix type, and
// malformed rows are refused.
func TestDecodeNLQRow(t *testing.T) {
	const d = 4
	for _, mt := range []core.MatrixType{core.Diagonal, core.Triangular, core.Full} {
		st, err := sqlparser.Parse(NLQQuery("X", Dims(d), mt))
		if err != nil {
			t.Fatal(err)
		}
		// Cell i of the row holds i+1 where the query has a sum, NULL
		// where it printed null padding.
		items := st.(*sqlparser.Select).Items
		row := make(sqltypes.Row, len(items))
		for i, it := range items {
			if _, padded := it.Expr.(*sqlparser.NullLit); !padded {
				row[i] = sqltypes.NewDouble(float64(i + 1))
			}
		}
		s, err := DecodeNLQRow(row, d, mt)
		if err != nil {
			t.Fatalf("%v: %v", mt, err)
		}
		if s.Type != mt || s.D != d || s.N != 1 {
			t.Fatalf("%v: type/d/n = %v/%d/%g", mt, s.Type, s.D, s.N)
		}
		for a := 0; a < d; a++ {
			if s.L[a] != float64(2+a) {
				t.Fatalf("%v: L[%d] = %g", mt, a, s.L[a])
			}
			for c := 0; c < d; c++ {
				want := 0.0
				if !row[1+d+a*d+c].IsNull() {
					want = float64(1 + d + a*d + c + 1)
				}
				if got := s.Q[a*d+c]; got != want {
					t.Fatalf("%v: Q[%d,%d] = %g, want %g", mt, a, c, got, want)
				}
			}
		}
		nonNull := 0
		for _, v := range row[1+d:] {
			if !v.IsNull() {
				nonNull++
			}
		}
		if want := map[core.MatrixType]int{core.Diagonal: d, core.Triangular: d * (d + 1) / 2, core.Full: d * d}[mt]; nonNull != want {
			t.Fatalf("%v: query computes %d Q cells, want %d", mt, nonNull, want)
		}
		// A value in a cell the type does not maintain is not read.
		if mt != core.Full {
			row[1+d+0*d+(d-1)] = sqltypes.NewDouble(99) // Q[0,d-1]: above the diagonal
			if s, err = DecodeNLQRow(row, d, mt); err != nil || s.Q[d-1] != 0 {
				t.Fatalf("%v: out-of-mask cell read: Q[0,%d] = %g, err %v", mt, d-1, s.Q[d-1], err)
			}
		}
	}

	full := make(sqltypes.Row, 1+d+d*d)
	for i := range full {
		full[i] = sqltypes.NewDouble(1)
	}
	with := func(i int, v sqltypes.Value) sqltypes.Row {
		r := append(sqltypes.Row(nil), full...)
		r[i] = v
		return r
	}
	for name, tc := range map[string]struct {
		row  sqltypes.Row
		dims int
	}{
		"too narrow":    {full[:len(full)-1], d},
		"too wide":      {append(with(0, full[0]), sqltypes.Null), d},
		"d mismatch":    {full, d - 1},
		"zero d":        {sqltypes.Row{sqltypes.NewDouble(1)}, 0},
		"NULL n":        {with(0, sqltypes.Null), d},
		"non-numeric n": {with(0, sqltypes.NewVarChar("x")), d},
		"non-numeric L": {with(2, sqltypes.NewVarChar("x")), d},
		"non-numeric Q": {with(1+d, sqltypes.NewVarChar("x")), d},
	} {
		if _, err := DecodeNLQRow(tc.row, tc.dims, core.Full); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// NULL sums (every value of a column NULL) leave the cell zero.
	if s, err := DecodeNLQRow(with(1, sqltypes.Null), d, core.Full); err != nil || s.L[0] != 0 {
		t.Fatalf("NULL L: %v, err %v", s, err)
	}
}
