package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fastfloat"
)

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed). The statement records the slice of sql it was parsed from
// (see StatementSource).
func Parse(sql string) (Statement, error) {
	s, err := getScratch(sql)
	if err != nil {
		return nil, err
	}
	defer putScratch(s)
	p := &s.p
	start := p.peek().pos.Offset
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	end := p.peek().pos.Offset // the ';' or EOF token
	p.accept(tokSymbol, ";")
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %q after statement", p.peek().text)
	}
	SetStatementSource(stmt, strings.TrimSpace(sql[start:end]))
	return stmt, nil
}

// ParseScript parses a sequence of semicolon-separated statements.
// Each statement records the slice of sql it was parsed from, so the
// query log shows the real text rather than a Go type name.
func ParseScript(sql string) ([]Statement, error) {
	s, err := getScratch(sql)
	if err != nil {
		return nil, err
	}
	defer putScratch(s)
	p := &s.p
	var out []Statement
	for {
		for p.accept(tokSymbol, ";") {
		}
		if p.peek().kind == tokEOF {
			return out, nil
		}
		start := p.peek().pos.Offset
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		SetStatementSource(stmt, strings.TrimSpace(sql[start:p.peek().pos.Offset]))
		out = append(out, stmt)
		if !p.accept(tokSymbol, ";") && p.peek().kind != tokEOF {
			return nil, p.errorf("expected ';' between statements, got %q", p.peek().text)
		}
	}
}

// ParseExpr parses a standalone expression (used by tests and by the
// engine's expression-level APIs).
func ParseExpr(s string) (Expr, error) {
	sc, err := getScratch(s)
	if err != nil {
		return nil, err
	}
	defer putScratch(sc)
	p := &sc.p
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

type parser struct {
	toks   []token
	i      int
	params int // number of `?` parameters seen so far, in source order
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// pos is the position of the token about to be consumed.
func (p *parser) pos() Position { return p.peek().pos }

// accept consumes the next token when it matches kind and (case for
// keywords/symbols) text; it reports whether it consumed.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) error {
	if !p.accept(kind, text) {
		return p.errorf("expected %q, got %q", text, p.peek().text)
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: %s: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (Statement, error) {
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "SELECT":
		return p.parseSelect()
	case t.kind == tokKeyword && t.text == "CREATE":
		return p.parseCreate()
	case t.kind == tokKeyword && t.text == "DROP":
		return p.parseDrop()
	case t.kind == tokKeyword && t.text == "INSERT":
		return p.parseInsert()
	default:
		return nil, p.errorf("expected a statement, got %q", t.text)
	}
}

func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *parser) parseCreate() (Statement, error) {
	at := p.next().pos // CREATE
	if p.accept(tokKeyword, "VIEW") {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
		if p.peek().kind != tokKeyword || p.peek().text != "SELECT" {
			return nil, p.errorf("expected SELECT after CREATE VIEW ... AS")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateView{Name: name, Query: sel, At: at}, nil
	}
	if err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTable{At: at}
	if p.accept(tokKeyword, "IF") {
		if err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		colPos := p.pos()
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typ := p.peek()
		if typ.kind != tokIdent && typ.kind != tokKeyword {
			return nil, p.errorf("expected column type, got %q", typ.text)
		}
		p.i++
		st.Columns = append(st.Columns, ColumnDef{Name: col, Type: typ.text, At: colPos})
		if p.accept(tokSymbol, ",") {
			continue
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return st, nil
	}
}

func (p *parser) parseDrop() (Statement, error) {
	at := p.next().pos // DROP
	isView := p.accept(tokKeyword, "VIEW")
	if !isView {
		if err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
	}
	ifExists := false
	if p.accept(tokKeyword, "IF") {
		if err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if isView {
		return &DropView{Name: name, IfExists: ifExists, At: at}, nil
	}
	return &DropTable{Name: name, IfExists: ifExists, At: at}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	at := p.next().pos // INSERT
	if err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	tablePos := p.pos()
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &Insert{Table: name, At: at, TablePos: tablePos}
	if p.accept(tokSymbol, "(") {
		for {
			colPos := p.pos()
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			st.ColumnPos = append(st.ColumnPos, colPos)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.accept(tokKeyword, "VALUES") {
		for {
			if err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.accept(tokSymbol, ",") {
					continue
				}
				if err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
				break
			}
			st.Rows = append(st.Rows, row)
			if !p.accept(tokSymbol, ",") {
				return st, nil
			}
		}
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Query = sel
		return st, nil
	}
	return nil, p.errorf("expected VALUES or SELECT in INSERT, got %q", p.peek().text)
}

func (p *parser) parseSelect() (*Select, error) {
	at := p.next().pos // SELECT
	st := &Select{At: at}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, ref)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if p.accept(tokKeyword, "CROSS") {
				if err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT, got %q", t.text)
		}
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.text)
		}
		st.Limit = &n
	}
	return st, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// `*` or `t.*`
	starPos := p.pos()
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true, At: starPos}, nil
	}
	if p.peek().kind == tokIdent && p.peek2().kind == tokSymbol && p.peek2().text == "." {
		// lookahead for t.* without consuming on failure
		save := p.i
		name, _ := p.parseIdent()
		p.next() // "."
		if p.accept(tokSymbol, "*") {
			return SelectItem{Star: true, StarTable: name, At: starPos}, nil
		}
		p.i = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e, At: e.Pos()}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	at := p.pos()
	name, err := p.parseIdent()
	if err != nil {
		return TableRef{}, err
	}
	// Qualified names ("sys.metrics") join into one dotted table name;
	// the catalog treats the dot as part of the name, not a schema
	// hierarchy.
	if p.accept(tokSymbol, ".") {
		part, err := p.parseIdent()
		if err != nil {
			return TableRef{}, err
		}
		name = name + "." + part
	}
	ref := TableRef{Name: name, At: at}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, lowest to highest precedence:
//   OR → AND → NOT → comparison/IS/BETWEEN/IN/LIKE → additive/|| →
//   multiplicative → unary minus → primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		opPos := p.pos()
		if !p.accept(tokKeyword, "OR") {
			return l, nil
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r, At: opPos}
	}
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		opPos := p.pos()
		if !p.accept(tokKeyword, "AND") {
			return l, nil
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r, At: opPos}
	}
}

func (p *parser) parseNot() (Expr, error) {
	notPos := p.pos()
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x, At: notPos}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch t := p.peek(); {
		case t.kind == tokSymbol && (t.text == "=" || t.text == "<" || t.text == ">" ||
			t.text == "<=" || t.text == ">=" || t.text == "<>" || t.text == "!="):
			opPos := p.pos()
			op := p.next().text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r, At: opPos}
		case t.kind == tokKeyword && t.text == "IS":
			isPos := p.next().pos
			negate := p.accept(tokKeyword, "NOT")
			if err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Negate: negate, At: isPos}
		case t.kind == tokKeyword && t.text == "BETWEEN":
			btwPos := p.next().pos
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokKeyword, "AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi, At: btwPos}
		case t.kind == tokKeyword && t.text == "NOT" &&
			p.peek2().kind == tokKeyword && (p.peek2().text == "BETWEEN" || p.peek2().text == "IN" || p.peek2().text == "LIKE"):
			p.next() // NOT
			inner, err := p.parseComparisonTail(l, true)
			if err != nil {
				return nil, err
			}
			l = inner
		case t.kind == tokKeyword && (t.text == "IN" || t.text == "LIKE"):
			inner, err := p.parseComparisonTail(l, false)
			if err != nil {
				return nil, err
			}
			l = inner
		default:
			return l, nil
		}
	}
}

// parseComparisonTail handles [NOT] IN / LIKE / BETWEEN suffixes after
// the NOT has been consumed.
func (p *parser) parseComparisonTail(l Expr, negate bool) (Expr, error) {
	switch t := p.next(); t.text {
	case "BETWEEN":
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Negate: negate, At: t.pos}, nil
	case "IN":
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		return &InExpr{X: l, List: list, Negate: negate, At: t.pos}, nil
	case "LIKE":
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := &FuncCall{Name: "like", Args: []Expr{l, pat}, At: t.pos}
		if negate {
			return &UnaryExpr{Op: "NOT", X: like, At: t.pos}, nil
		}
		return like, nil
	default:
		return nil, p.errorf("unexpected %q", t.text)
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-" && t.text != "||") {
			return l, nil
		}
		op := p.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op.text, L: l, R: r, At: op.pos}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l, nil
		}
		op := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op.text, L: l, R: r, At: op.pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	minusPos := p.pos()
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x, At: minusPos}, nil
	}
	if p.accept(tokSymbol, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.i++
		if !strings.ContainsAny(t.text, ".eE") {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return &NumberLit{IsInt: true, Int: n, Float: float64(n), At: t.pos}, nil
			}
		}
		f, err := fastfloat.Parse(t.text)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.text)
		}
		return &NumberLit{Float: f, At: t.pos}, nil
	case t.kind == tokString:
		p.i++
		return &StringLit{Val: t.text, At: t.pos}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.i++
		return &NullLit{At: t.pos}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.i++
		return &BoolLit{Val: true, At: t.pos}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.i++
		return &BoolLit{Val: false, At: t.pos}, nil
	case t.kind == tokSymbol && t.text == "?":
		p.i++
		pr := &ParamRef{Index: p.params, At: t.pos}
		p.params++
		return pr, nil
	case t.kind == tokKeyword && t.text == "CASE":
		return p.parseCase()
	case t.kind == tokKeyword && t.text == "CAST":
		return p.parseCast()
	case t.kind == tokSymbol && t.text == "(":
		p.i++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errorf("unexpected %q in expression", t.text)
	}
}

func (p *parser) parseIdentExpr() (Expr, error) {
	nameTok := p.next()
	name := nameTok.text
	// Function call?
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.i++
		fc := &FuncCall{Name: strings.ToLower(name), At: nameTok.pos}
		if p.accept(tokSymbol, "*") {
			fc.Star = true
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.accept(tokSymbol, ")") {
			return fc, nil
		}
		if p.accept(tokKeyword, "DISTINCT") {
			fc.Distinct = true
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
	}
	// Qualified column?
	if p.peek().kind == tokSymbol && p.peek().text == "." {
		p.i++
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col, At: nameTok.pos}, nil
	}
	return &ColumnRef{Name: name, At: nameTok.pos}, nil
}

func (p *parser) parseCase() (Expr, error) {
	casePos := p.next().pos // CASE
	ce := &CaseExpr{At: casePos}
	for p.accept(tokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, When{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(tokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseCast() (Expr, error) {
	castPos := p.next().pos // CAST
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return nil, p.errorf("expected type name in CAST, got %q", t.text)
	}
	p.i++
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CastExpr{X: x, Type: t.text, At: castPos}, nil
}
