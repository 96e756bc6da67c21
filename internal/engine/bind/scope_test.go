package bind

import (
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

func TestScopeRules(t *testing.T) {
	x := sqltypes.MustSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeDouble}, sqltypes.Column{Name: "b", Type: sqltypes.TypeBigInt})
	y := sqltypes.MustSchema(sqltypes.Column{Name: "b", Type: sqltypes.TypeDouble}, sqltypes.Column{Name: "v", Type: sqltypes.TypeNull})
	var sc Scope
	for _, e := range []struct {
		name   string
		schema *sqltypes.Schema
	}{{"x", x}, {"Y", y}} {
		if err := sc.Add(e.name, e.schema); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Add("y", x); err == nil || !strings.Contains(err.Error(), `duplicate table name "y"`) {
		t.Fatalf("re-adding y: %v", err)
	}
	for _, c := range []struct {
		table, column string
		ord           int
		err           string
	}{
		{"", "a", 0, ""},
		{"y", "B", 2, ""},
		{"", "v", 3, ""},
		{"", "b", 0, `ambiguous column "b"`},
		{"", "zz", 0, `unknown column "zz"`},
		{"x", "v", 0, `table "x" has no column "v"`},
		{"z", "a", 0, `unknown table "z"`},
	} {
		ord, err := sc.Ordinal(c.table, c.column)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%s.%s: error %v, want %q", c.table, c.column, err, c.err)
			}
		} else if err != nil || ord != c.ord {
			t.Errorf("%s.%s → %d, %v; want %d", c.table, c.column, ord, err, c.ord)
		}
	}
	// A NULL-typed column (a view output) has no known type.
	v, _ := sc.Resolve("", "v")
	if _, ok := sc.Type(v); ok {
		t.Error("a NULL-typed column must have no known type")
	}
	xb, _ := sc.Resolve("x", "b")
	if typ, ok := sc.Type(xb); !ok || typ != sqltypes.TypeBigInt {
		t.Errorf("x.b is %v (known %v), want BIGINT", typ, ok)
	}
	items, err := sc.Expand(nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("no items: %v, %v", items, err)
	}
	stars, err := sc.Star("")
	if err != nil || len(stars) != 4 || stars[2].Expr.String() != "Y.b" || stars[2].Alias != "b" {
		t.Fatalf("* = %v, %v", stars, err)
	}
	if _, err := sc.Star("z"); err == nil || err.Error() != "z.* does not match any table in FROM" {
		t.Fatalf("z.*: %v", err)
	}
}

// TestUnresolvedEntryAcceptsAnyColumn: an entry without a schema answers
// every lookup that could land on it with an unknown column instead of
// an error, so one bad table name yields one diagnostic.
func TestUnresolvedEntryAcceptsAnyColumn(t *testing.T) {
	var sc Scope
	if err := sc.Add("x", sqltypes.MustSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeDouble})); err != nil {
		t.Fatal(err)
	}
	if err := sc.Add("nope", nil); err != nil {
		t.Fatal(err)
	}
	for _, ref := range [][2]string{{"nope", "anything"}, {"", "anything"}, {"", "a"}} {
		c, err := sc.Resolve(ref[0], ref[1])
		if err != nil || c.Index >= 0 {
			t.Errorf("%s.%s → %+v, %v; want an unknown column", ref[0], ref[1], c, err)
		}
		if _, ok := sc.Type(c); ok {
			t.Errorf("%s.%s has a known type", ref[0], ref[1])
		}
	}
	if _, err := sc.Resolve("x", "zz"); err == nil {
		t.Error("a resolved entry still refuses a column it lacks")
	}
	if stars, err := sc.Star("nope"); err != nil || len(stars) != 0 {
		t.Errorf("nope.* → %v, %v", stars, err)
	}
}
