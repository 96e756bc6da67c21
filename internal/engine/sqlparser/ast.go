package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement. Pos returns the source
// location of the statement's first token (zero for synthetic
// statements built by planners or tests); String prints the statement
// back to SQL that parses to an equal statement.
type Statement interface {
	isStatement()
	Pos() Position
	String() string
}

// stmtSource carries the slice of the original input a statement was
// parsed from. Parse and ParseScript fill it; synthetic statements
// leave it empty. It is embedded in every statement struct so the
// query log can show real SQL instead of a Go type name.
type stmtSource struct {
	source string
}

func (s *stmtSource) setSource(src string) { s.source = src }

// sourcer is implemented by every statement struct via stmtSource.
type sourcer interface {
	setSource(string)
}

// StatementSource returns the original SQL text the statement was
// parsed from, or "" for synthetic statements.
func StatementSource(stmt Statement) string {
	type sourced interface{ sourceText() string }
	if s, ok := stmt.(sourced); ok {
		return s.sourceText()
	}
	return ""
}

func (s *stmtSource) sourceText() string { return s.source }

// SetStatementSource records src as the statement's original SQL.
// Callers that build statements programmatically (or re-render them)
// can use it so sys.queries shows something meaningful.
func SetStatementSource(stmt Statement, src string) {
	if s, ok := stmt.(sourcer); ok {
		s.setSource(src)
	}
}

// StatementText is the SQL a statement is logged and sent on as: the
// text it was parsed from when the parser recorded one, otherwise the
// statement printed back to parseable SQL.
func StatementText(stmt Statement) string {
	if src := StatementSource(stmt); src != "" {
		return src
	}
	return stmt.String()
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string // raw type name; resolved by the catalog
	At   Position
}

// CreateTable is `CREATE TABLE [IF NOT EXISTS] name (col type, ...)`.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	IfNotExists bool
	At          Position
	stmtSource
}

// DropTable is `DROP TABLE [IF EXISTS] name`.
type DropTable struct {
	Name     string
	IfExists bool
	At       Position
	stmtSource
}

// CreateView is `CREATE VIEW name AS SELECT ...`. Views are expanded
// (inlined) into referencing queries at plan time.
type CreateView struct {
	Name  string
	Query *Select
	At    Position
	stmtSource
}

// DropView is `DROP VIEW [IF EXISTS] name`.
type DropView struct {
	Name     string
	IfExists bool
	At       Position
	stmtSource
}

// Insert is `INSERT INTO name [(cols)] VALUES (...),(...)` or
// `INSERT INTO name [(cols)] SELECT ...`.
type Insert struct {
	Table     string
	Columns   []string // optional explicit column list
	ColumnPos []Position
	Rows      [][]Expr // literal rows, when Query == nil
	Query     *Select  // INSERT .. SELECT, when non-nil
	At        Position
	TablePos  Position
	stmtSource
}

// Select is a SELECT statement (also used as a subquery in INSERT).
type Select struct {
	Items   []SelectItem
	From    []TableRef // empty means a table-less SELECT of constants
	Where   Expr
	GroupBy []Expr
	Having  Expr // post-aggregation filter; requires GROUP BY or aggregates
	OrderBy []OrderItem
	Limit   *int64
	At      Position
	stmtSource
}

// SelectItem is one projection: an expression with an optional alias,
// or `*` / `t.*`.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	// StarTable qualifies a star item (`t.*`); empty for a bare `*`.
	StarTable string
	At        Position
}

// Pos returns the item's source location: the expression's own
// position, or the star token for `*` items.
func (s SelectItem) Pos() Position {
	if s.Expr != nil {
		return s.Expr.Pos()
	}
	return s.At
}

// ExplicitName is the name the item was given in the statement — its
// alias, or the column a bare reference names — or "" for a computed
// item without an alias.
func (s SelectItem) ExplicitName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if cr, ok := s.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return ""
}

// maxTextName is the longest expression text used as a column name.
const maxTextName = 40

// Name is the item's output column name wherever it stands in the
// select list: its explicit name, else the expression's text when that
// is short. "" means the name falls back to the item's position (see
// OutputName). Star items have no name of their own.
func (s SelectItem) Name() string {
	if name := s.ExplicitName(); name != "" {
		return name
	}
	if text := s.Expr.String(); len(text) <= maxTextName {
		return text
	}
	return ""
}

// OutputName is the output column name of the select item at ordinal
// (0-based, stars expanded): every layer that labels or resolves output
// columns — the planner, sema, view expansion, the cluster coordinator —
// names them through it.
func OutputName(item SelectItem, ordinal int) string {
	if name := item.Name(); name != "" {
		return name
	}
	return fmt.Sprintf("col%d", ordinal+1)
}

// OutputNames collects the select's visible output column names,
// lower-cased, and reports whether a star item is present (its columns
// are not in the set: they are known only once FROM is bound).
func OutputNames(sel *Select) (names map[string]bool, hasStar bool) {
	names = make(map[string]bool, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			hasStar = true
			continue
		}
		names[strings.ToLower(OutputName(item, i))] = true
	}
	return names, hasStar
}

// OrderKeyOnOutput reports whether an ORDER BY key sorts on the
// statement's output — an integer ordinal, or an expression whose
// column references are all unqualified output names — rather than
// being computed per input row as a hidden select item.
func OrderKeyOnOutput(e Expr, outNames map[string]bool) bool {
	if lit, ok := e.(*NumberLit); ok && lit.IsInt {
		return true
	}
	onOutput := true
	Walk(e, func(x Expr) bool {
		if cr, ok := x.(*ColumnRef); ok && (cr.Table != "" || !outNames[strings.ToLower(cr.Name)]) {
			onOutput = false
		}
		return onOutput
	})
	return onOutput
}

// TableRef names a table in FROM with an optional alias. Consecutive
// refs are cross-joined (the paper's scoring queries cross-join the
// data set with small model tables).
type TableRef struct {
	Name  string
	Alias string
	At    Position
}

// RefName returns the name the table is addressable by in the query.
func (t TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// String renders the SELECT back to parseable SQL; view definitions
// are persisted in this form.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, item := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case item.Star && item.StarTable != "":
			b.WriteString(item.StarTable + ".*")
		case item.Star:
			b.WriteString("*")
		default:
			b.WriteString(item.Expr.String())
			if item.Alias != "" {
				b.WriteString(" AS " + item.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, ref := range s.From {
			if i > 0 {
				b.WriteString(" CROSS JOIN ")
			}
			b.WriteString(ref.Name)
			if ref.Alias != "" {
				b.WriteString(" AS " + ref.Alias)
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %d", *s.Limit)
	}
	return b.String()
}

func (s *CreateTable) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	b.WriteString(s.Name + " (")
	for i, col := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(col.Name + " " + col.Type)
	}
	b.WriteString(")")
	return b.String()
}

func (s *DropTable) String() string { return "DROP TABLE " + ifExists(s.IfExists) + s.Name }

func (s *CreateView) String() string { return "CREATE VIEW " + s.Name + " AS " + s.Query.String() }

func (s *DropView) String() string { return "DROP VIEW " + ifExists(s.IfExists) + s.Name }

func ifExists(on bool) string {
	if on {
		return "IF EXISTS "
	}
	return ""
}

func (s *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	if s.Query != nil {
		return b.String() + " " + s.Query.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

func (*CreateTable) isStatement() {}
func (*DropTable) isStatement()   {}
func (*CreateView) isStatement()  {}
func (*DropView) isStatement()    {}
func (*Insert) isStatement()      {}
func (*Select) isStatement()      {}

func (s *CreateTable) Pos() Position { return s.At }
func (s *DropTable) Pos() Position   { return s.At }
func (s *CreateView) Pos() Position  { return s.At }
func (s *DropView) Pos() Position    { return s.At }
func (s *Insert) Pos() Position      { return s.At }
func (s *Select) Pos() Position      { return s.At }

// Expr is any SQL expression node. Pos returns the node's source
// location: the first token for most nodes, the operator token for
// binary expressions (so a type-mismatch diagnostic points at the
// operator, not the start of a long operand). Synthetic nodes return
// the zero Position.
type Expr interface {
	isExpr()
	String() string
	Pos() Position
}

// NumberLit is a numeric literal. Integers retain exactness.
type NumberLit struct {
	IsInt bool
	Int   int64
	Float float64
	At    Position
}

// StringLit is a quoted string literal.
type StringLit struct {
	Val string
	At  Position
}

// NullLit is the NULL literal.
type NullLit struct{ At Position }

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Val bool
	At  Position
}

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table, Name string
	At          Position
}

// BinaryExpr applies a binary operator: arithmetic (+ - * / %),
// comparison (= <> < <= > >=), logic (AND OR) or concatenation (||).
// At is the operator's position.
type BinaryExpr struct {
	Op   string
	L, R Expr
	At   Position
}

// UnaryExpr applies unary minus or NOT.
type UnaryExpr struct {
	Op string // "-" or "NOT"
	X  Expr
	At Position
}

// FuncCall invokes a built-in or user-defined function. Star marks
// count(*). Distinct marks count(DISTINCT e).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
	At       Position
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []When
	Else  Expr // may be nil (NULL)
	At    Position
}

// When is one WHEN..THEN arm of a CASE.
type When struct {
	Cond Expr
	Then Expr
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X      Expr
	Negate bool
	At     Position
}

// CastExpr is `CAST(x AS type)`.
type CastExpr struct {
	X    Expr
	Type string
	At   Position
}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negate    bool
	At        Position
}

// InExpr is `x [NOT] IN (e1, e2, ...)`.
type InExpr struct {
	X      Expr
	List   []Expr
	Negate bool
	At     Position
}

// ParamRef is a `?` positional parameter in a prepared statement.
// Index is the 0-based slot, assigned left-to-right across the whole
// statement by the parser. Values are bound at EXECUTE time.
type ParamRef struct {
	Index int
	At    Position
}

func (*NumberLit) isExpr()   {}
func (*StringLit) isExpr()   {}
func (*NullLit) isExpr()     {}
func (*BoolLit) isExpr()     {}
func (*ColumnRef) isExpr()   {}
func (*BinaryExpr) isExpr()  {}
func (*UnaryExpr) isExpr()   {}
func (*FuncCall) isExpr()    {}
func (*CaseExpr) isExpr()    {}
func (*IsNullExpr) isExpr()  {}
func (*CastExpr) isExpr()    {}
func (*BetweenExpr) isExpr() {}
func (*InExpr) isExpr()      {}
func (*ParamRef) isExpr()    {}

func (e *NumberLit) Pos() Position   { return e.At }
func (e *StringLit) Pos() Position   { return e.At }
func (e *NullLit) Pos() Position     { return e.At }
func (e *BoolLit) Pos() Position     { return e.At }
func (e *ColumnRef) Pos() Position   { return e.At }
func (e *BinaryExpr) Pos() Position  { return e.At }
func (e *UnaryExpr) Pos() Position   { return e.At }
func (e *FuncCall) Pos() Position    { return e.At }
func (e *CaseExpr) Pos() Position    { return e.At }
func (e *IsNullExpr) Pos() Position  { return e.At }
func (e *CastExpr) Pos() Position    { return e.At }
func (e *BetweenExpr) Pos() Position { return e.At }
func (e *InExpr) Pos() Position      { return e.At }
func (e *ParamRef) Pos() Position    { return e.At }

func (e *ParamRef) String() string { return "?" }

func (e *NumberLit) String() string {
	if e.IsInt {
		return strconv.FormatInt(e.Int, 10)
	}
	return strconv.FormatFloat(e.Float, 'g', -1, 64)
}

func (e *StringLit) String() string {
	return "'" + strings.ReplaceAll(e.Val, "'", "''") + "'"
}

func (*NullLit) String() string { return "NULL" }

func (e *BoolLit) String() string {
	if e.Val {
		return "TRUE"
	}
	return "FALSE"
}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", e.X)
	}
	return fmt.Sprintf("(%s%s)", e.Op, e.X)
}

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	prefix := ""
	if e.Distinct {
		prefix = "DISTINCT "
	}
	return e.Name + "(" + prefix + strings.Join(args, ", ") + ")"
}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}

func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

func (e *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", e.X, e.Type)
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", e.X, not, e.Lo, e.Hi)
}

func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", e.X, not, strings.Join(items, ", "))
}
