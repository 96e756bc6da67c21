package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Edge is one static call recorded by the call graph: Caller invokes
// Callee at Pos. Calls through function values and built-ins are not
// recorded; calls inside function literals are attributed to the
// enclosing declared function (Lit points at the innermost literal, so
// analyzers that care — e.g. a callback invoked under a lock — can
// still tell literal-body calls apart).
type Edge struct {
	Caller string // ObjectKey of the enclosing *ast.FuncDecl's object
	Callee string // ObjectKey of the resolved callee
	// Interface reports that the callee is an interface method: the
	// concrete target is unknown locally and must be matched against
	// implementations (possibly in other packages, via facts).
	Interface bool
	Pos       token.Pos
	// Lit is the innermost function literal containing the call, nil
	// for calls made directly in the declared function's body.
	Lit *ast.FuncLit
	// Args are the call's argument expressions (the AST nodes), kept so
	// flow-style analyzers can inspect what was passed without
	// re-walking the file.
	Args []ast.Expr
	// CalleeObj is the resolved callee in this package's type universe.
	CalleeObj *types.Func
}

// CallGraph holds the static call edges of one package, bottom-up
// building block for the cross-package invariant analyzers.
type CallGraph struct {
	// Edges maps each declared function's key to its outgoing calls, in
	// source order.
	Edges map[string][]Edge
	// Decls maps each declared function's key to its declaration.
	Decls map[string]*ast.FuncDecl
	// order preserves declaration order for deterministic iteration.
	order []string
}

// Functions returns every declared function's key in declaration order.
func (g *CallGraph) Functions() []string { return g.order }

// BuildCallGraph computes the call graph of pkg.
func BuildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		Edges: make(map[string][]Edge),
		Decls: make(map[string]*ast.FuncDecl),
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pkg.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			key := ObjectKey(obj)
			g.Decls[key] = fd
			g.order = append(g.order, key)
			g.Edges[key] = collectEdges(pkg, key, fd.Body)
		}
	}
	return g
}

// collectEdges walks one function body recording resolvable calls.
func collectEdges(pkg *Package, caller string, body ast.Node) []Edge {
	var out []Edge
	var lits []*ast.FuncLit // stack of enclosing literals
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			ast.Inspect(n.Body, walk)
			lits = lits[:len(lits)-1]
			return false
		case *ast.CallExpr:
			if callee, iface := resolveCallee(pkg, n); callee != nil {
				var lit *ast.FuncLit
				if len(lits) > 0 {
					lit = lits[len(lits)-1]
				}
				out = append(out, Edge{
					Caller:    caller,
					Callee:    ObjectKey(callee),
					Interface: iface,
					Pos:       n.Pos(),
					Lit:       lit,
					Args:      n.Args,
					CalleeObj: callee,
				})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// resolveCallee resolves a call expression to a *types.Func, reporting
// whether the call goes through an interface method. Conversions,
// built-ins and calls of plain function values resolve to nil.
func resolveCallee(pkg *Package, call *ast.CallExpr) (*types.Func, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.TypesInfo.Uses[fun].(*types.Func)
		return fn, false
	case *ast.SelectorExpr:
		if sel := pkg.TypesInfo.Selections[fun]; sel != nil {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			_, iface := sel.Recv().Underlying().(*types.Interface)
			return fn, iface
		}
		// Qualified reference: pkg.Func or Type.Method expression.
		fn, _ := pkg.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn, false
	}
	return nil, false
}

// Reaches computes the set of declared functions that can reach, via
// static calls, a callee accepted by isBase. For every reaching
// function the returned map holds a human-readable call chain ending
// in the base reason, e.g. "Insert → commit → PartitionRowCounts
// (acquires storage.Table.mu)". isBase is consulted for every callee,
// so cross-package base members (known only through facts) work the
// same as local ones. Recursion converges because a function's chain
// is only set once.
func (g *CallGraph) Reaches(isBase func(calleeKey string) (reason string, ok bool)) map[string]string {
	chain := make(map[string]string)
	for changed := true; changed; {
		changed = false
		for _, caller := range g.order {
			if _, done := chain[caller]; done {
				continue
			}
			for _, e := range g.Edges[caller] {
				if reason, ok := isBase(e.Callee); ok {
					chain[caller] = ShortName(caller) + " → " + ShortName(e.Callee) + " (" + reason + ")"
					changed = true
					break
				}
				if via, ok := chain[e.Callee]; ok {
					chain[caller] = ShortName(caller) + " → " + via
					changed = true
					break
				}
			}
		}
	}
	return chain
}

// ShortName strips the package path from an object key, keeping
// "Type.Method" or "Func".
func ShortName(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[i+1:]
		}
	}
	// No slash: a stdlib-style key ("sync.Mutex.Lock") is already short.
	return key
}
