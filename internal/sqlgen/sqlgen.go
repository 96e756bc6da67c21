// Package sqlgen generates the SQL that Teradata Warehouse Miner would
// emit: the "long" one-scan query computing n, L, Q with plain SQL
// aggregates (§3.4), the equivalent aggregate-UDF calls in both
// parameter-passing styles, the blocked calls for high d, and the
// scoring statements for each model (§3.5). The engine's SQL parser
// accepts everything produced here.
package sqlgen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
)

// Dims returns the conventional column names X1..Xd.
func Dims(d int) []string {
	out := make([]string, d)
	for a := range out {
		out[a] = fmt.Sprintf("X%d", a+1)
	}
	return out
}

// NLQQuery builds the paper's single "long" SELECT with 1 + d + d²
// terms: sum(1.0) for n, d linear sums for L, and the Q sums laid out
// row-major with NULL padding outside the requested matrix type (the
// padding keeps the result row a fixed 1+d+d² wide, as printed in
// §3.4).
func NLQQuery(table string, dims []string, mt core.MatrixType) string {
	var b strings.Builder
	b.WriteString("SELECT\n sum(1.0) /* n */\n")
	for _, x := range dims {
		fmt.Fprintf(&b, ",sum(%s)", x)
	}
	b.WriteString(" /* L */\n")
	d := len(dims)
	for a := 0; a < d; a++ {
		for c := 0; c < d; c++ {
			if included(mt, a, c) {
				fmt.Fprintf(&b, ",sum(%s*%s)", dims[a], dims[c])
			} else {
				b.WriteString(",null")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "FROM %s", table)
	return b.String()
}

// included reports whether Q[a,c] is maintained under mt: the one rule
// that decides which of the d² cells NLQQuery computes and DecodeNLQRow
// reads back.
func included(mt core.MatrixType, a, c int) bool {
	switch mt {
	case core.Diagonal:
		return a == c
	case core.Triangular:
		return c <= a
	}
	return mt == core.Full
}

// DecodeNLQRow converts NLQQuery's 1+d+d² result row back into an NLQ:
// n, then L, then Q row-major, reading only the cells NLQQuery computed
// for mt. The SQL path does not compute min/max (the UDF does), so the
// sentinel infinities stay in place.
func DecodeNLQRow(row sqltypes.Row, dims int, mt core.MatrixType) (*core.NLQ, error) {
	if len(row) != 1+dims+dims*dims {
		return nil, fmt.Errorf("sqlgen: SQL summary row is %d wide, want 1+d+d² = %d", len(row), 1+dims+dims*dims)
	}
	if row[0].IsNull() {
		return nil, fmt.Errorf("sqlgen: SQL summary over no qualifying rows")
	}
	s, err := core.NewNLQ(dims, mt)
	if err != nil {
		return nil, err
	}
	if s.N, err = row[0].AsFloat(); err != nil {
		return nil, fmt.Errorf("sqlgen: bad N in SQL summary: %w", err)
	}
	for a := 0; a < dims; a++ {
		if !row[1+a].IsNull() {
			if s.L[a], err = row[1+a].AsFloat(); err != nil {
				return nil, fmt.Errorf("sqlgen: bad L[%d] in SQL summary: %w", a, err)
			}
		}
	}
	for a := 0; a < dims; a++ {
		for c := 0; c < dims; c++ {
			if v := row[1+dims+a*dims+c]; included(mt, a, c) && !v.IsNull() {
				if s.Q[a*dims+c], err = v.AsFloat(); err != nil {
					return nil, fmt.Errorf("sqlgen: bad Q[%d,%d] in SQL summary: %w", a, c, err)
				}
			}
		}
	}
	return s, nil
}

// NLQQueriesPerCell builds the naive alternative of §3.4: one SELECT
// statement per matrix entry (n, then d statements for L, then the
// lower-triangle statements for Q) — d(d+1)/2 + d + 1 scans.
func NLQQueriesPerCell(table string, dims []string) []string {
	out := []string{fmt.Sprintf("SELECT sum(1.0) AS n FROM %s", table)}
	for a, x := range dims {
		out = append(out, fmt.Sprintf("SELECT %d, sum(%s) FROM %s", a+1, x, table))
	}
	for a := 0; a < len(dims); a++ {
		for c := 0; c <= a; c++ {
			out = append(out, fmt.Sprintf("SELECT %d, %d, sum(%s*%s) FROM %s",
				a+1, c+1, dims[a], dims[c], table))
		}
	}
	return out
}

// PassStyle selects the aggregate UDF's parameter-passing style.
type PassStyle int

const (
	// ListStyle passes each dimension as its own argument.
	ListStyle PassStyle = iota
	// StringStyle packs the vector into one string per row; the cast
	// and concatenation overhead is the cost Figure 3 measures.
	StringStyle
)

// String names the style as the figures label it.
func (p PassStyle) String() string {
	if p == StringStyle {
		return "string"
	}
	return "list"
}

// NLQUDFQuery builds the aggregate-UDF call computing n, L, Q in one
// scan: SELECT nlq_list(d, 'mt', X1, ..., Xd) FROM t, or the packed
// string variant.
func NLQUDFQuery(table string, dims []string, mt core.MatrixType, style PassStyle) string {
	return fmt.Sprintf("SELECT %s FROM %s", nlqUDFCall(dims, mt, style), table)
}

// NLQUDFGroupQuery builds the GROUP BY variant of Table 5: one set of
// summary matrices per group, grouping on groupExpr (the paper uses
// mod(i, k)).
func NLQUDFGroupQuery(table string, dims []string, mt core.MatrixType, style PassStyle, groupExpr string) string {
	return fmt.Sprintf("SELECT %s AS j, %s FROM %s GROUP BY %s",
		groupExpr, nlqUDFCall(dims, mt, style), table, groupExpr)
}

func nlqUDFCall(dims []string, mt core.MatrixType, style PassStyle) string {
	var b strings.Builder
	name := "nlq_list"
	if style == StringStyle {
		name = "nlq_str"
	}
	fmt.Fprintf(&b, "%s(%d, '%s'", name, len(dims), mt)
	if style == StringStyle {
		b.WriteString(", ")
		for a, x := range dims {
			if a > 0 {
				b.WriteString(" || '|' || ")
			}
			fmt.Fprintf(&b, "CAST(%s AS VARCHAR)", x)
		}
	} else {
		for _, x := range dims {
			fmt.Fprintf(&b, ", %s", x)
		}
	}
	b.WriteString(")")
	return b.String()
}

// NLQBlockQuery builds the Table 6 statement: one SELECT containing
// every nlq_block call of the plan, so all blocks are computed in a
// single synchronized table scan. Each call receives only its block's
// dimension values.
func NLQBlockQuery(table string, dims []string, plan *core.BlockPlan) string {
	var b strings.Builder
	b.WriteString("SELECT\n")
	for i, blk := range plan.Blocks {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, " nlq_block(%d, %d, %d, %d", blk.RowLo, blk.RowHi, blk.ColLo, blk.ColHi)
		for a := blk.RowLo; a < blk.RowHi; a++ {
			fmt.Fprintf(&b, ", %s", dims[a])
		}
		if !(blk.RowLo == blk.ColLo && blk.RowHi == blk.ColHi) {
			for c := blk.ColLo; c < blk.ColHi; c++ {
				fmt.Fprintf(&b, ", %s", dims[c])
			}
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, "\nFROM %s", table)
	return b.String()
}

// KMeansIterationQuery builds one K-means iteration as a single table
// scan: the nearest-centroid subscript is computed per row with the
// scoring UDFs and used directly as the GROUP BY key, and the grouped
// aggregate UDF accumulates each cluster's diagonal summaries — the
// paper's observation that the GROUP BY query of Table 5 "can be used
// to compute k clusters if the nearest centroid is available in
// column j", with the centroid computed inline instead of stored.
func KMeansIterationQuery(xTable, cTable string, dims []string, k int) string {
	var assign strings.Builder
	assign.WriteString("clusterscore(")
	for j := 1; j <= k; j++ {
		if j > 1 {
			assign.WriteString(", ")
		}
		assign.WriteString("kdistance(")
		for _, x := range dims {
			fmt.Fprintf(&assign, "%s.%s, ", xTable, x)
		}
		for a, x := range dims {
			if a > 0 {
				assign.WriteString(", ")
			}
			fmt.Fprintf(&assign, "c%d.%s", j, x)
		}
		assign.WriteString(")")
	}
	assign.WriteString(")")

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s AS j, nlq_list(%d, 'diag'", assign.String(), len(dims))
	for _, x := range dims {
		fmt.Fprintf(&b, ", %s.%s", xTable, x)
	}
	fmt.Fprintf(&b, ") FROM %s", xTable)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, " CROSS JOIN %s c%d", cTable, j)
	}
	b.WriteString(" WHERE ")
	for j := 1; j <= k; j++ {
		if j > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "c%d.j = %d", j, j)
	}
	fmt.Fprintf(&b, " GROUP BY %s", assign.String())
	return b.String()
}

// RegScoreUDF builds the one-scan regression scoring statement:
// X CROSS JOIN BETA, one linearregscore call per row (§3.5).
func RegScoreUDF(xTable, betaTable, idCol string, dims []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s.%s, linearregscore(", xTable, idCol)
	for _, x := range dims {
		fmt.Fprintf(&b, "%s.%s, ", xTable, x)
	}
	for i := 0; i <= len(dims); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "b%d", i)
	}
	fmt.Fprintf(&b, ") AS yhat FROM %s CROSS JOIN %s", xTable, betaTable)
	return b.String()
}

// RegScoreSQL builds the equivalent plain-SQL arithmetic expression:
// ŷ = b0 + b1·X1 + ... + bd·Xd, evaluated by the interpreter.
func RegScoreSQL(xTable, betaTable, idCol string, dims []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s.%s, b0", xTable, idCol)
	for a, x := range dims {
		fmt.Fprintf(&b, " + b%d * %s.%s", a+1, xTable, x)
	}
	fmt.Fprintf(&b, " AS yhat FROM %s CROSS JOIN %s", xTable, betaTable)
	return b.String()
}

// PCAScoreUDF builds the PCA/factor scoring statement: LAMBDA is
// cross-joined k times with aliases l1..lk (each filtered to its j)
// and fascore is called k times, producing the k reduced coordinates
// in one scan.
func PCAScoreUDF(xTable, muTable, lambdaTable, idCol string, dims []string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s.%s", xTable, idCol)
	for j := 1; j <= k; j++ {
		b.WriteString(", fascore(")
		for _, x := range dims {
			fmt.Fprintf(&b, "%s.%s, ", xTable, x)
		}
		for _, x := range dims {
			fmt.Fprintf(&b, "m.%s, ", x)
		}
		for a, x := range dims {
			if a > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "l%d.%s", j, x)
		}
		fmt.Fprintf(&b, ") AS p%d", j)
	}
	fmt.Fprintf(&b, " FROM %s CROSS JOIN %s m", xTable, muTable)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, " CROSS JOIN %s l%d", lambdaTable, j)
	}
	b.WriteString(" WHERE ")
	for j := 1; j <= k; j++ {
		if j > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "l%d.j = %d", j, j)
	}
	return b.String()
}

// PCAScoreSQL builds the plain-SQL equivalent: k arithmetic
// expressions Σa (Xa − µa)·Λaj over the same cross joins.
func PCAScoreSQL(xTable, muTable, lambdaTable, idCol string, dims []string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s.%s", xTable, idCol)
	for j := 1; j <= k; j++ {
		b.WriteString(", ")
		for a, x := range dims {
			if a > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "(%s.%s - m.%s) * l%d.%s", xTable, x, x, j, x)
		}
		fmt.Fprintf(&b, " AS p%d", j)
	}
	fmt.Fprintf(&b, " FROM %s CROSS JOIN %s m", xTable, muTable)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, " CROSS JOIN %s l%d", lambdaTable, j)
	}
	b.WriteString(" WHERE ")
	for j := 1; j <= k; j++ {
		if j > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "l%d.j = %d", j, j)
	}
	return b.String()
}

// ClusterScoreUDF builds the clustering scoring statement: the k
// centroids are cross-joined with aliases, kdistance is called k times
// and clusterscore picks the nearest subscript — one scan (§3.5).
func ClusterScoreUDF(xTable, cTable, idCol string, dims []string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s.%s, clusterscore(", xTable, idCol)
	for j := 1; j <= k; j++ {
		if j > 1 {
			b.WriteString(", ")
		}
		b.WriteString("kdistance(")
		for _, x := range dims {
			fmt.Fprintf(&b, "%s.%s, ", xTable, x)
		}
		for a, x := range dims {
			if a > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "c%d.%s", j, x)
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, ") AS j FROM %s", xTable)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, " CROSS JOIN %s c%d", cTable, j)
	}
	b.WriteString(" WHERE ")
	for j := 1; j <= k; j++ {
		if j > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "c%d.j = %d", j, j)
	}
	return b.String()
}

// ClusterScoreSQL builds the plain-SQL clustering scoring as the paper
// describes it for SQL: two statements over a distance table — the
// first scan computes the k squared distances per point into distTable,
// the second finds the minimum with a CASE ladder. The caller runs the
// statements in order (the returned slice includes the CREATE/DROP
// housekeeping).
func ClusterScoreSQL(xTable, cTable, distTable, idCol string, dims []string, k int) []string {
	var stmts []string
	stmts = append(stmts, fmt.Sprintf("DROP TABLE IF EXISTS %s", distTable))
	var create strings.Builder
	fmt.Fprintf(&create, "CREATE TABLE %s (%s BIGINT", distTable, idCol)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&create, ", d%d DOUBLE", j)
	}
	create.WriteString(")")
	stmts = append(stmts, create.String())

	var ins strings.Builder
	fmt.Fprintf(&ins, "INSERT INTO %s SELECT %s.%s", distTable, xTable, idCol)
	for j := 1; j <= k; j++ {
		ins.WriteString(", ")
		for a, x := range dims {
			if a > 0 {
				ins.WriteString(" + ")
			}
			fmt.Fprintf(&ins, "(%s.%s - c%d.%s) * (%s.%s - c%d.%s)", xTable, x, j, x, xTable, x, j, x)
		}
	}
	fmt.Fprintf(&ins, " FROM %s", xTable)
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&ins, " CROSS JOIN %s c%d", cTable, j)
	}
	ins.WriteString(" WHERE ")
	for j := 1; j <= k; j++ {
		if j > 1 {
			ins.WriteString(" AND ")
		}
		fmt.Fprintf(&ins, "c%d.j = %d", j, j)
	}
	stmts = append(stmts, ins.String())

	var sel strings.Builder
	fmt.Fprintf(&sel, "SELECT %s, CASE", idCol)
	for j := 1; j <= k; j++ {
		sel.WriteString(" WHEN ")
		first := true
		for o := 1; o <= k; o++ {
			if o == j {
				continue
			}
			if !first {
				sel.WriteString(" AND ")
			}
			first = false
			fmt.Fprintf(&sel, "d%d <= d%d", j, o)
		}
		if first { // k == 1
			sel.WriteString("TRUE")
		}
		fmt.Fprintf(&sel, " THEN %d", j)
	}
	fmt.Fprintf(&sel, " END AS j FROM %s", distTable)
	stmts = append(stmts, sel.String())
	return stmts
}
