package sqlparser

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlgen"
)

// walkFixtures builds one instance of every Expr node type with
// distinguishable leaf children, keyed by type name, next to the
// children Walk must reach in that order. Every node carries its own
// non-zero position.
func walkFixtures() map[string]struct {
	node     Expr
	children []Expr
} {
	n := 0
	at := func() Position { n++; return Position{Offset: n, Line: n, Column: n} }
	leaf := func() Expr { p := at(); return &ColumnRef{Name: fmt.Sprintf("c%d", p.Line), At: p} }
	type fixture = struct {
		node     Expr
		children []Expr
	}
	kids := func(k int) []Expr {
		out := make([]Expr, k)
		for i := range out {
			out[i] = leaf()
		}
		return out
	}
	out := map[string]fixture{
		"NumberLit": {node: &NumberLit{IsInt: true, Int: 7, Float: 7, At: at()}},
		"StringLit": {node: &StringLit{Val: "s", At: at()}},
		"NullLit":   {node: &NullLit{At: at()}},
		"BoolLit":   {node: &BoolLit{Val: true, At: at()}},
		"ColumnRef": {node: &ColumnRef{Table: "t", Name: "c", At: at()}},
		"ParamRef":  {node: &ParamRef{Index: 3, At: at()}},
	}
	k := kids(1)
	out["UnaryExpr"] = fixture{&UnaryExpr{Op: "-", X: k[0], At: at()}, k}
	k = kids(2)
	out["BinaryExpr"] = fixture{&BinaryExpr{Op: "+", L: k[0], R: k[1], At: at()}, k}
	k = kids(3)
	out["FuncCall"] = fixture{&FuncCall{Name: "f", Args: []Expr{k[0], k[1], k[2]}, Distinct: true, At: at()}, k}
	k = kids(5)
	out["CaseExpr"] = fixture{&CaseExpr{Whens: []When{{Cond: k[0], Then: k[1]}, {Cond: k[2], Then: k[3]}}, Else: k[4], At: at()}, k}
	k = kids(1)
	out["IsNullExpr"] = fixture{&IsNullExpr{X: k[0], Negate: true, At: at()}, k}
	k = kids(1)
	out["CastExpr"] = fixture{&CastExpr{X: k[0], Type: "DOUBLE", At: at()}, k}
	k = kids(3)
	out["BetweenExpr"] = fixture{&BetweenExpr{X: k[0], Lo: k[1], Hi: k[2], Negate: true, At: at()}, k}
	k = kids(3)
	out["InExpr"] = fixture{&InExpr{X: k[0], List: []Expr{k[1], k[2]}, Negate: true, At: at()}, k}
	return out
}

// exprTypesInAST lists the types ast.go declares an isExpr method on.
func exprTypesInAST(t *testing.T) []string {
	t.Helper()
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "isExpr" || fd.Recv == nil {
			continue
		}
		if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
			names = append(names, star.X.(*ast.Ident).Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestWalkRewriteKnowEveryNode: for every Expr node type ast.go
// declares, Walk reaches the node and then each child exactly once in
// source order, prunes when told to, and Rewrite with a hook that
// replaces nothing returns a deep-equal tree (every position kept)
// that shares no structural node with the original. A node kind added
// to ast.go without a fixture here — and so without a case in the two
// walkers — fails.
func TestWalkRewriteKnowEveryNode(t *testing.T) {
	fixtures := walkFixtures()
	declared := exprTypesInAST(t)
	if len(declared) != len(fixtures) {
		t.Errorf("ast.go declares %d Expr node types %v, the fixtures cover %d", len(declared), declared, len(fixtures))
	}
	for _, name := range declared {
		fx, ok := fixtures[name]
		if !ok {
			t.Errorf("no fixture for node type %s: teach Walk and Rewrite its children, then add one", name)
			continue
		}
		if got := reflect.TypeOf(fx.node).Elem().Name(); got != name {
			t.Fatalf("fixture %s holds a %s", name, got)
		}
		var visited []Expr
		Walk(fx.node, func(x Expr) bool {
			visited = append(visited, x)
			return true
		})
		want := append([]Expr{fx.node}, fx.children...)
		if len(visited) != len(want) {
			t.Errorf("%s: Walk visited %d nodes, want %d", name, len(visited), len(want))
			continue
		}
		for i := range want {
			if visited[i] != want[i] {
				t.Errorf("%s: Walk visit %d is %s, want %s", name, i, visited[i], want[i])
			}
		}
		calls := 0
		Walk(fx.node, func(Expr) bool { calls++; return false })
		if calls != 1 {
			t.Errorf("%s: a pruned Walk made %d calls, want 1", name, calls)
		}
		for _, sub := range []func(Expr) (Expr, bool){nil, func(Expr) (Expr, bool) { return nil, false }} {
			cp := Rewrite(fx.node, sub)
			if !reflect.DeepEqual(cp, fx.node) {
				t.Errorf("%s: identity Rewrite returned %#v, want %#v", name, cp, fx.node)
			}
			if cp.Pos() != fx.node.Pos() || !cp.Pos().IsValid() {
				t.Errorf("%s: identity Rewrite moved the position %v → %v", name, fx.node.Pos(), cp.Pos())
			}
			switch fx.node.(type) {
			case *NumberLit, *StringLit, *NullLit, *BoolLit:
				// Immutable, shared.
			default:
				if cp == fx.node {
					t.Errorf("%s: identity Rewrite returned the original node", name)
				}
			}
		}
	}
}

// TestWalkSourceOrder: over a parsed expression using every composite
// node kind, Walk meets the column references in the order they were
// written, and Rewrite substitutes exactly the node it is told to.
func TestWalkSourceOrder(t *testing.T) {
	const src = "CASE WHEN a BETWEEN b AND c THEN f(d, -e) WHEN g IN (h, i) THEN CAST(j AS DOUBLE) ELSE k + l * ? END IS NOT NULL OR NOT m = n"
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	WalkColumns(e, func(cr *ColumnRef) { got = append(got, cr.Name) })
	if want := "a b c d e g h i j k l m n"; strings.Join(got, " ") != want {
		t.Errorf("columns visited %q, want %q", strings.Join(got, " "), want)
	}
	before := e.String()
	out := SubstituteColumns(e, func(cr *ColumnRef) (Expr, bool) {
		if cr.Name == "h" {
			return &NumberLit{IsInt: true, Int: 42, Float: 42}, true
		}
		return nil, false
	})
	if want := strings.Replace(before, "(h, i)", "(42, i)", 1); out.String() != want {
		t.Errorf("substituted tree prints %q, want %q", out, want)
	}
	if e.String() != before {
		t.Errorf("Rewrite changed the original: %q → %q", before, e)
	}
}

// TestWalkersDoNotAllocate: visiting a statement costs no allocation —
// counting the `?` slots of every ad-hoc request and every prepare used
// to deep-copy the statement.
func TestWalkersDoNotAllocate(t *testing.T) {
	dims := sqlgen.Dims(8)
	for name, sql := range map[string]string{
		"serve_point ad-hoc": sqlgen.RegScoreUDF("X", "BETA", "i", dims) + " WHERE X.i = 17 /* client 1 request 9 */",
		"NLQQuery d=32":      sqlgen.NLQQuery("X", sqlgen.Dims(32), core.Diagonal),
		"with parameters":    "SELECT a + ? FROM t WHERE b BETWEEN ? AND ? ORDER BY c * ?",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sel := stmt.(*Select)
		nodes, cols, params := 0, 0, 0
		if a := testing.AllocsPerRun(20, func() {
			walkSelectExprs(sel, func(e Expr) {
				Walk(e, func(Expr) bool { nodes++; return true })
			})
		}); a != 0 {
			t.Errorf("%s: Walk allocates %v times per statement", name, a)
		}
		if a := testing.AllocsPerRun(20, func() {
			walkSelectExprs(sel, func(e Expr) {
				WalkColumns(e, func(*ColumnRef) { cols++ })
			})
		}); a != 0 {
			t.Errorf("%s: WalkColumns allocates %v times per statement", name, a)
		}
		if a := testing.AllocsPerRun(20, func() { params += CountParams(stmt) }); a != 0 {
			t.Errorf("%s: CountParams allocates %v times per statement", name, a)
		}
		if nodes == 0 || cols == 0 {
			t.Errorf("%s: walked %d nodes, %d columns", name, nodes, cols)
		}
	}
}
