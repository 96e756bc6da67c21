// Package sema is the engine's semantic analyzer. It runs between the
// parser and the executor on every query: name resolution against the
// catalog schema, expression type inference and checking,
// aggregate-placement and GROUP BY validity checks, and scalar /
// aggregate UDF arity and argument-type checking against the function
// registries.
//
// The paper's workloads submit long machine-generated SELECTs (d=64
// summary queries project 2,144 expressions) over 20-way partitioned
// tables; before sema, a bad column reference or a wrong UDF arity
// surfaced mid-scan — possibly minutes in — or panicked. sema rejects
// such statements in microseconds, before any partition scan starts,
// with positioned multi-error diagnostics ("line:col: message" using
// the lexer's token positions).
//
// sema deliberately follows the engine's runtime semantics rather
// than a stricter SQL standard: comparisons and logic accept any
// operand types (the engine's Compare and three-valued Bool are
// total), while arithmetic, numeric builtins and numeric aggregates
// reject operands that are statically VARCHAR. Unknown types (NULL,
// CASE over mixed branches, un-annotated UDF results) are never
// flagged — sema only reports errors it can prove.
package sema

import (
	"fmt"
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// Catalog supplies table schemas for name resolution. The db package
// and the executor's catalog both satisfy it.
type Catalog interface {
	// TableSchema returns the schema of the named table, or an error if
	// the table does not exist.
	TableSchema(name string) (*sqltypes.Schema, error)
}

// Env bundles what a statement is checked against: the catalog and the
// scalar / aggregate function registries. Nil registries disable the
// corresponding function checks (but never cause false errors).
type Env struct {
	Catalog Catalog
	Scalars *expr.Registry
	Aggs    *udf.Registry
}

// Diagnostic is one positioned semantic error.
type Diagnostic struct {
	Pos sqlparser.Position
	Msg string
}

// Error renders the diagnostic as "sema: line:col: message" (the
// position is omitted for synthetic nodes without one).
func (d Diagnostic) Error() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("sema: %s: %s", d.Pos, d.Msg)
	}
	return "sema: " + d.Msg
}

// ErrorList is the multi-error a check returns: every diagnostic found,
// in source order of discovery, capped at maxDiagnostics.
type ErrorList []Diagnostic

func (l ErrorList) Error() string {
	if len(l) == 1 {
		return l[0].Error()
	}
	var b strings.Builder
	for i, d := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	return b.String()
}

// maxDiagnostics caps a single check's error list so a deeply broken
// generated query doesn't produce thousands of lines.
const maxDiagnostics = 25

// CheckStatement semantically checks any parsed statement. Column
// references bind by bind.Scope's rules, over the schemas Catalog gives
// the FROM entries. The db layer checks a statement that names a view
// twice: as written, against a catalog in which the view is a table
// whose columns are its outputs, so its names bind and fail as over base
// tables; and, by the executor, once expanded, when every view body's
// references are bound in the body's own FROM. DDL that the catalog
// validates on execution (CREATE/DROP VIEW, DROP TABLE) passes through,
// so views may reference UDFs registered later.
func CheckStatement(stmt sqlparser.Statement, env *Env) error {
	c := newChecker(env)
	switch st := stmt.(type) {
	case *sqlparser.Select:
		c.checkSelect(st)
	case *sqlparser.Insert:
		c.checkInsert(st)
	case *sqlparser.CreateTable:
		c.checkCreateTable(st)
	}
	return c.result()
}

// CheckSelect semantically checks a SELECT against the environment.
func CheckSelect(sel *sqlparser.Select, env *Env) error {
	c := newChecker(env)
	c.checkSelect(sel)
	return c.result()
}

// CheckInsert semantically checks an INSERT (VALUES or SELECT form).
func CheckInsert(ins *sqlparser.Insert, env *Env) error {
	c := newChecker(env)
	c.checkInsert(ins)
	return c.result()
}

// checker accumulates diagnostics across one statement.
type checker struct {
	env      *Env
	aggNames map[string]bool // env.Aggs.Names(), read once per check
	diags    ErrorList
}

func (c *checker) errf(pos sqlparser.Position, format string, args ...any) {
	if len(c.diags) < maxDiagnostics {
		c.diags = append(c.diags, Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) result() error {
	if len(c.diags) == 0 {
		return nil
	}
	return c.diags
}

// newChecker starts a check against env.
func newChecker(env *Env) *checker {
	c := &checker{env: env}
	if env.Aggs != nil {
		c.aggNames = env.Aggs.Names()
	}
	return c
}

// isAggregate reports whether a call of name is routed to the
// aggregation pipeline.
func (c *checker) isAggregate(name string) bool { return expr.IsAggregate(name, c.aggNames) }

func (c *checker) checkCreateTable(st *sqlparser.CreateTable) {
	seen := make(map[string]bool, len(st.Columns))
	for _, col := range st.Columns {
		if _, err := sqltypes.ParseType(col.Type); err != nil {
			c.errf(col.At, "unknown type %q for column %q", col.Type, col.Name)
		}
		key := strings.ToLower(col.Name)
		if seen[key] {
			c.errf(col.At, "duplicate column %q", col.Name)
		}
		seen[key] = true
	}
}

func (c *checker) checkInsert(ins *sqlparser.Insert) {
	var schema *sqltypes.Schema
	if c.env.Catalog != nil {
		s, err := c.env.Catalog.TableSchema(ins.Table)
		if err != nil {
			c.errf(ins.TablePos, "unknown table %q", ins.Table)
		} else {
			schema = s
		}
	}
	width := 0
	if schema != nil {
		width = schema.Len()
	}
	if len(ins.Columns) > 0 {
		width = len(ins.Columns)
		seen := make(map[string]bool, len(ins.Columns))
		for i, name := range ins.Columns {
			pos := ins.TablePos
			if i < len(ins.ColumnPos) {
				pos = ins.ColumnPos[i]
			}
			if schema != nil && schema.Index(name) < 0 {
				c.errf(pos, "table %q has no column %q", ins.Table, name)
			}
			key := strings.ToLower(name)
			if seen[key] {
				c.errf(pos, "duplicate column %q in INSERT column list", name)
			}
			seen[key] = true
		}
	}
	for _, row := range ins.Rows {
		if schema != nil && len(row) != width {
			pos := ins.TablePos
			if len(row) > 0 {
				pos = row[0].Pos()
			}
			c.errf(pos, "INSERT expects %d values, got %d", width, len(row))
		}
		for _, e := range row {
			c.noAggregates(e, "INSERT VALUES")
			c.infer(e, nil)
		}
	}
	if ins.Query != nil {
		c.checkSelect(ins.Query)
		if schema != nil {
			n, hasStar := 0, false
			for _, it := range ins.Query.Items {
				if it.Star {
					hasStar = true
				} else {
					n++
				}
			}
			if !hasStar && n != width {
				c.errf(ins.Query.At, "INSERT expects %d columns, subquery produces %d", width, n)
			}
		}
	}
}
