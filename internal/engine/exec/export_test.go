package exec

// RaceEnabled is raceEnabled for the package's external tests.
const RaceEnabled = raceEnabled

// FrontEnd describes what the statement front end decided for a planned
// SELECT: the output column names (hidden keys included), how many
// trailing `$orderN` keys are hidden, and whether it plans as an
// aggregate statement.
func (p *PreparedSelect) FrontEnd() (names []string, hidden int, aggregate bool) {
	return p.schema.Names(), p.hidden, p.agg != nil
}

// PathMatrixStatements lists every statement text TestSelectPathMatrix
// runs, `?` forms included.
func PathMatrixStatements() []string {
	var out []string
	for _, q := range pathQueries {
		out = append(out, q.sql)
		if q.param != "" {
			out = append(out, q.param)
		}
	}
	return append(out, projectionQueries...)
}
