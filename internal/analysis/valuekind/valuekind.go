// Package valuekind bans the panic-prone Must* conveniences in
// production code. sqltypes.Value.MustFloat, sqltypes.MustSchema and
// core.MustNLQ panic on bad input; they exist for test fixtures where
// a panic is a clear test failure. Production code must use the
// error-returning forms (Value.AsFloat, NewSchema, NewNLQ) and handle
// the error — a malformed UDF result, schema or dimensionality must
// surface as a query error, not crash the engine mid-scan.
package valuekind

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// alternatives maps each banned function, by package path and name, to
// its error-returning replacement.
var alternatives = map[string]map[string]string{
	"repro/internal/engine/sqltypes": {"MustFloat": "AsFloat", "MustSchema": "NewSchema"},
	"repro/internal/core":            {"MustNLQ": "NewNLQ"},
}

// Analyzer flags MustFloat/MustSchema/MustNLQ calls outside _test.go
// files.
var Analyzer = &analysis.Analyzer{
	Name: "valuekind",
	Doc: "report panic-prone constructors and accessors (Value.MustFloat, MustSchema, MustNLQ) in non-test code; " +
		"production paths must use the error-returning forms",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call.Fun)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if alt, banned := alternatives[fn.Pkg().Path()][fn.Name()]; banned {
				pass.Reportf(call.Pos(), "%s.%s panics on bad input and is test-only; use %s and handle the error", fn.Pkg().Name(), fn.Name(), alt)
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call's function expression to its *types.Func:
// a method (via Selections), a qualified package-level function, or an
// unqualified one called from inside its own package (via Uses).
func calleeFunc(pass *analysis.Pass, fun ast.Expr) *types.Func {
	id, _ := fun.(*ast.Ident)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s := pass.TypesInfo.Selections[sel]; s != nil {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		id = sel.Sel
	}
	if id == nil {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
