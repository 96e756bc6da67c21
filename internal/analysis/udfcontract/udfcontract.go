// Package udfcontract enforces the engine's UDF authoring contract
// (the Teradata-style rules PAPER.md §2 fixes and internal/engine/udf
// documents):
//
//   - A type that looks like an aggregate UDF (it has most of the
//     phase methods) must implement the complete udf.Aggregate
//     interface — a missing Merge, for example, would only surface at
//     registration or, worse, at query time.
//   - An aggregate's Init phase must allocate its state through the
//     provided *udf.Heap; ignoring the heap bypasses the 64 KB
//     segment accounting that the MAX_d bound and blocked computation
//     depend on.
//   - Packages that define aggregate UDFs must not hold package-level
//     mutable state: one Aggregate value serves all queries
//     concurrently, so all per-group state must live in Init-allocated
//     state (blank identity assertions like `var _ udf.Aggregate = x`
//     are exempt).
//   - Scalar UDFs (anything with the ScalarFunc signature, or with the
//     float-body signature expr.FloatFunc) must not perform I/O — they
//     run once per row inside partition scans.
package udfcontract

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

const (
	udfPath      = "repro/internal/engine/udf"
	sqltypesPath = "repro/internal/engine/sqltypes"
)

// phaseMethods are the udf.Aggregate methods; a type with most of them
// is treated as an intended aggregate UDF.
var phaseMethods = []string{"Name", "CheckArgs", "Init", "Accumulate", "Merge", "Finalize"}

// ioPackages are forbidden inside scalar UDF bodies.
var ioPackages = map[string]bool{
	"os": true, "io": true, "io/ioutil": true, "bufio": true,
	"net": true, "net/http": true,
}

// ioFmtFuncs are the fmt functions that write (Errorf/Sprintf stay
// allowed — building an error is not I/O).
var ioFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// Analyzer enforces the aggregate and scalar UDF contracts.
var Analyzer = &analysis.Analyzer{
	Name: "udfcontract",
	Doc: "enforce the UDF authoring contract: complete udf.Aggregate implementations, " +
		"Init allocating through the udf.Heap, no package-level mutable state in " +
		"aggregate-defining packages, and no I/O in scalar UDF bodies",
	Run: run,
}

func run(pass *analysis.Pass) error {
	aggIface := lookupAggregate(pass.Pkg)
	definesAggregate := false

	// Pass 1: named types — completeness and Init/Heap discipline.
	if aggIface != nil {
		for _, name := range pass.Pkg.Scope().Names() {
			tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			have := map[string]bool{}
			for _, m := range phaseMethods {
				if hasMethod(named, m) {
					have[m] = true
				}
			}
			if len(have) < 3 {
				continue // not aggregate-shaped
			}
			if !implementsAggregate(named, aggIface) {
				var missing []string
				for _, m := range phaseMethods {
					if !have[m] {
						missing = append(missing, m)
					}
				}
				pass.Reportf(tn.Pos(), "%s implements aggregate-UDF phases but not the full udf.Aggregate contract (missing or mis-typed: %s)",
					name, strings.Join(missing, ", "))
				continue
			}
			definesAggregate = true
			checkInitUsesHeap(pass, named)
		}
	}

	// Pass 2: package-level mutable state in aggregate-defining packages.
	if definesAggregate {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok.String() != "var" {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range vs.Names {
						if id.Name == "_" {
							continue // interface-satisfaction assertion
						}
						pass.Reportf(id.Pos(), "package-level var %s in an aggregate-UDF package; one Aggregate value serves all queries concurrently, so state must live in Init-allocated heap state", id.Name)
					}
				}
			}
		}
	}

	// Pass 3: scalar UDF bodies must not do I/O.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && isScalarUDF(obj.Type()) {
				checkNoIO(pass, fd.Body, fd.Name.Name)
			}
			// Scalar UDFs are often function literals (numeric1-style
			// adapters); check those too.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[lit]; ok && isScalarUDF(tv.Type) {
					checkNoIO(pass, lit.Body, "scalar UDF literal")
					return false
				}
				return true
			})
		}
	}
	return nil
}

// lookupAggregate finds the udf.Aggregate interface: in the package
// itself (when analyzing package udf) or among its direct imports
// (a package defining aggregates necessarily imports udf for Heap and
// State). Nil if udf is not in view.
func lookupAggregate(pkg *types.Package) *types.Interface {
	scopeOf := func(p *types.Package) *types.Interface {
		obj := p.Scope().Lookup("Aggregate")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	if pkg.Path() == udfPath {
		return scopeOf(pkg)
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == udfPath {
			return scopeOf(imp)
		}
	}
	return nil
}

func implementsAggregate(named *types.Named, iface *types.Interface) bool {
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

func hasMethod(named *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// checkInitUsesHeap finds the AST of named's Init method and reports
// if the *udf.Heap parameter is discarded or never used.
func checkInitUsesHeap(pass *analysis.Pass, named *types.Named) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Init" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := obj.Type().(*types.Signature).Recv()
			if recv == nil || !sameNamed(recv.Type(), named) {
				continue
			}
			params := fd.Type.Params
			if params == nil || len(params.List) == 0 {
				continue
			}
			heapField := params.List[0]
			if len(heapField.Names) == 0 || heapField.Names[0].Name == "_" {
				pass.Reportf(fd.Pos(), "%s.Init discards its *udf.Heap; allocate state through the heap so the 64 KB segment budget is enforced", named.Obj().Name())
				return
			}
			heapObj := pass.TypesInfo.Defs[heapField.Names[0]]
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == heapObj {
					used = true
				}
				return !used
			})
			if !used {
				pass.Reportf(fd.Pos(), "%s.Init never uses its *udf.Heap; allocate state through the heap so the 64 KB segment budget is enforced", named.Obj().Name())
			}
			return
		}
	}
}

func sameNamed(t types.Type, named *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// isScalarUDF reports whether t is one of the two scalar-UDF
// signatures: the boxed func([]sqltypes.Value) (sqltypes.Value, error),
// or the float body func([]float64) (float64, error).
func isScalarUDF(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	slice, ok := sig.Params().At(0).Type().(*types.Slice)
	if !ok || sig.Results().At(1).Type().String() != "error" {
		return false
	}
	arg, res := slice.Elem(), sig.Results().At(0).Type()
	return (isSQLValue(arg) && isSQLValue(res)) || (isFloat64(arg) && isFloat64(res))
}

func isFloat64(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func isSQLValue(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Value" && obj.Pkg() != nil && obj.Pkg().Path() == sqltypesPath
}

// checkNoIO reports calls into I/O packages inside a scalar UDF body.
func checkNoIO(pass *analysis.Pass, body ast.Node, where string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		path := obj.Pkg().Path()
		if ioPackages[path] || (path == "fmt" && ioFmtFuncs[obj.Name()]) {
			pass.Reportf(call.Pos(), "scalar UDF %s performs I/O (%s.%s); scalar UDFs run once per row inside partition scans and must stay pure", where, path, obj.Name())
		}
		return true
	})
}
