package exec

import (
	"strconv"
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/udf"
)

// aggSpec is one aggregate call extracted from the select list.
type aggSpec struct {
	agg      udf.Aggregate
	args     []sqlparser.Expr
	star     bool
	distinct bool
	key      string     // canonical text, for deduplication
	float    *floatSpec // set at prepare when the call has a float body; nil: always Accumulate
}

// grpQualifier and aggQualifier are synthetic table names used by
// rewritten post-aggregation expressions; resolved against the group
// row [groupValues..., aggregateResults...].
const (
	grpQualifier = "$grp"
	aggQualifier = "$agg"
)

// aggRewriter rewrites select-item and HAVING expressions for the
// post-aggregation evaluation phase: subtrees textually equal to a
// GROUP BY expression become $grp.k references, and aggregate calls
// become $agg.k references while being collected (deduplicated) into
// specs. An aggregate's own arguments stay row expressions.
type aggRewriter struct {
	groupKeys []string // matchKey of each GROUP BY expression
	aggs      *udf.Registry
	aggNames  map[string]bool
	specs     []aggSpec
	err       error // the first failure; nothing is rewritten after it
}

func (r *aggRewriter) rewrite(e sqlparser.Expr) (sqlparser.Expr, error) {
	out := sqlparser.Rewrite(e, r.node)
	return out, r.err
}

func syntheticRef(qualifier string, k int) *sqlparser.ColumnRef {
	return &sqlparser.ColumnRef{Table: qualifier, Name: strconv.Itoa(k)}
}

func (r *aggRewriter) node(x sqlparser.Expr) (sqlparser.Expr, bool) {
	if r.err != nil {
		return x, true
	}
	key := ""
	if len(r.groupKeys) > 0 {
		key = matchKey(x)
		for k, g := range r.groupKeys {
			if key == g {
				return syntheticRef(grpQualifier, k), true
			}
		}
	}
	fc, ok := x.(*sqlparser.FuncCall)
	if !ok || !expr.IsAggregate(fc.Name, r.aggNames) {
		return nil, false
	}
	agg, found := r.aggs.Lookup(fc.Name)
	if !found {
		return nil, false
	}
	if key == "" {
		key = matchKey(fc)
	}
	for k, s := range r.specs {
		if s.key == key {
			return syntheticRef(aggQualifier, k), true
		}
	}
	nargs := len(fc.Args)
	if fc.Star {
		nargs = 0
	}
	if r.err = agg.CheckArgs(nargs); r.err != nil {
		return x, true
	}
	r.specs = append(r.specs, aggSpec{agg: agg, args: fc.Args, star: fc.Star, distinct: fc.Distinct, key: key})
	return syntheticRef(aggQualifier, len(r.specs)-1), true
}

// matchKey is the text two expressions are compared by. Every `?` is
// its own slot although all of them print as "?", so each slot's index
// is appended: an expression holding a parameter equals only itself.
func matchKey(e sqlparser.Expr) string {
	key := e.String()
	if !strings.Contains(key, "?") {
		return key
	}
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if pr, ok := x.(*sqlparser.ParamRef); ok {
			key += "?" + strconv.Itoa(pr.Index)
		}
		return true
	})
	return key
}
