// Package lockreent machine-checks the engine's lock re-entrancy
// contract. A mutex field annotated `//statlint:guards <field>` on its
// owning type (storage.Table's `mu`) defines a *guarded lock*; the
// analyzer computes, bottom-up over the whole program, the transitive
// set of functions that acquire that lock, and flags any call path
// that re-enters the set from a context already holding it:
//
//   - the lexical region between a Lock/RLock call and its matching
//     non-deferred Unlock (deferred unlocks hold to function end),
//   - methods whose name ends in "Locked" on the guarded type (the
//     repo's caller-must-hold naming convention),
//   - functions annotated `//statlint:locked Type.field`,
//   - implementations of interface methods that some package invokes
//     while holding the lock (exported as CalledUnderLock facts and
//     matched against implementations in every dependent package), and
//   - function literals passed to a function that invokes its callback
//     parameter under the lock (exported as CallsParamUnderLock facts;
//     the ScanPartition family).
//
// This is the static version of the deadlock warning documented on
// storage.Table: a scan callback or *Locked method calling back into
// Insert/Scan/Rows deadlocks on the table's own RWMutex.
//
// Known approximations: calls through non-parameter function values
// are not tracked, and a literal passed into `go func(){...}` under a
// lock is treated as running under it even though the goroutine may
// outlive the critical section (over-approximation in the safe
// direction).
package lockreent

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockreent analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockreent",
	Doc: "flag call paths that re-acquire a //statlint:guards-annotated mutex " +
		"from callbacks run under the lock, *Locked methods, or lock-holding regions",
	Run: run,
}

// GuardedLock marks a lock key ("pkgpath.Type.field") as annotated
// with //statlint:guards, so dependent packages recognize acquisitions
// of an exported guarded mutex.
type GuardedLock struct{}

func (GuardedLock) AFact() {}

// Acquires marks a function as acquiring the guarded lock Lock, either
// directly or through a callee; Via is the human-readable call chain.
type Acquires struct{ Lock, Via string }

func (Acquires) AFact() {}

// CalledUnderLock marks an interface method as invoked somewhere while
// Lock is held; implementations in dependent packages become
// under-lock contexts.
type CalledUnderLock struct{ Lock string }

func (CalledUnderLock) AFact() {}

// CallsParamUnderLock marks a function as invoking its Param'th
// parameter (a func value) while Lock is held; function literals at
// its call sites become under-lock contexts.
type CallsParamUnderLock struct {
	Lock  string
	Param int
}

func (CallsParamUnderLock) AFact() {}

// lockEvent is one Lock/Unlock-family call on a guarded lock inside a
// function body.
type lockEvent struct {
	pos      token.Pos
	lock     string
	acquire  bool
	deferred bool
}

// lockCtx is one region of code known to run with lock held. start/end
// of 0 means the whole function body.
type lockCtx struct {
	fn         string
	lock       string
	start, end token.Pos
	what       string // human-readable reason the lock is held here
}

type checker struct {
	pass *analysis.Pass
	g    *analysis.CallGraph

	guarded []string                        // known guarded lock keys, sorted
	events  map[string][]lockEvent          // funcKey → lock ops in source order
	direct  map[string]map[string]token.Pos // funcKey → lock → first acquire
	chains  map[string]map[string]string    // lock → funcKey → acquisition chain

	queue    []lockCtx
	ctxSeen  map[string]bool
	reported map[string]bool
	// seenIface / seenParam / seenSite dedupe fact exports and call-site
	// expansion across fixpoint rounds.
	seenIface map[string]bool
	seenParam map[string]bool
	seenSite  map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		g:         pass.CallGraph(),
		events:    make(map[string][]lockEvent),
		direct:    make(map[string]map[string]token.Pos),
		chains:    make(map[string]map[string]string),
		ctxSeen:   make(map[string]bool),
		reported:  make(map[string]bool),
		seenIface: make(map[string]bool),
		seenParam: make(map[string]bool),
		seenSite:  make(map[string]bool),
	}
	c.collectGuards()
	c.scanLockOps()
	c.computeAcquirers()
	c.seedNamedContexts()
	c.seedRegionContexts()
	for changed := true; changed; {
		changed = c.seedImplContexts()
		changed = c.seedCallbackSites() || changed
		for len(c.queue) > 0 {
			ctx := c.queue[0]
			c.queue = c.queue[1:]
			c.processCtx(ctx)
			changed = true
		}
	}
	return nil
}

// collectGuards parses //statlint:guards directives on type
// declarations, validates the named field is a sync.Mutex or
// sync.RWMutex, and exports a GuardedLock fact per lock. It then
// merges in guarded locks exported by dependencies.
func (c *checker) collectGuards() {
	seen := map[string]bool{}
	add := func(lock string) {
		if !seen[lock] {
			seen[lock] = true
			c.guarded = append(c.guarded, lock)
		}
	}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				field, found := directiveArg(gd.Doc, ts.Doc, ts.Comment)
				if !found {
					continue
				}
				obj, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if !hasMutexField(obj.Type(), field) {
					c.pass.Reportf(ts.Pos(),
						"statlint:guards: type %s has no sync.Mutex or sync.RWMutex field %q", obj.Name(), field)
					continue
				}
				lock := analysis.ObjectKey(obj) + "." + field
				c.pass.Facts.Export(lock, GuardedLock{})
				add(lock)
			}
		}
	}
	for _, kf := range analysis.AllFacts[GuardedLock](c.pass.Facts) {
		add(kf.Key)
	}
	sort.Strings(c.guarded)
}

// directiveArg finds the first //statlint:guards directive in any of
// the comment groups and returns its argument (the field name).
func directiveArg(groups ...*ast.CommentGroup) (string, bool) {
	const prefix = "//statlint:guards"
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			if !strings.HasPrefix(cmt.Text, prefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(cmt.Text, prefix))
			if len(fields) > 0 {
				return fields[0], true
			}
			return "", true
		}
	}
	return "", false
}

// hasMutexField reports whether t's underlying struct has a field
// named field of type sync.Mutex or sync.RWMutex.
func hasMutexField(t types.Type, field string) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != field {
			continue
		}
		n, ok := f.Type().(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			return false
		}
		return n.Obj().Pkg().Path() == "sync" &&
			(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
	}
	return false
}

// isGuarded reports whether lock is a known guarded lock key.
func (c *checker) isGuarded(lock string) bool {
	for _, g := range c.guarded {
		if g == lock {
			return true
		}
	}
	return false
}

// scanLockOps records every Lock/RLock/Unlock/RUnlock call on a
// guarded lock per function, with deferredness.
func (c *checker) scanLockOps() {
	for _, fn := range c.g.Functions() {
		decl := c.g.Decls[fn]
		deferred := map[*ast.CallExpr]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if ds, ok := n.(*ast.DeferStmt); ok {
				deferred[ds.Call] = true
			}
			return true
		})
		var events []lockEvent
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var acquire bool
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				acquire = true
			case "Unlock", "RUnlock":
			default:
				return true
			}
			lock := c.guardedLockOf(sel.X)
			if lock == "" {
				return true
			}
			events = append(events, lockEvent{
				pos:      call.Pos(),
				lock:     lock,
				acquire:  acquire,
				deferred: deferred[call],
			})
			return true
		})
		sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		if len(events) > 0 {
			c.events[fn] = events
			for _, ev := range events {
				if ev.acquire {
					if c.direct[fn] == nil {
						c.direct[fn] = map[string]token.Pos{}
					}
					if _, ok := c.direct[fn][ev.lock]; !ok {
						c.direct[fn][ev.lock] = ev.pos
					}
				}
			}
		}
	}
}

// guardedLockOf resolves an expression like t.mu to a guarded lock key
// ("" if the expression is not a guarded field selection).
func (c *checker) guardedLockOf(x ast.Expr) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection := c.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return ""
	}
	lock := analysis.FieldKey(selection.Recv(), sel.Sel.Name)
	if lock == "" || !c.isGuarded(lock) {
		return ""
	}
	return lock
}

// computeAcquirers closes the direct-acquirer set over the call graph
// per lock (merging imported Acquires facts for cross-package callees)
// and exports Acquires facts for every local acquirer.
func (c *checker) computeAcquirers() {
	for _, lock := range c.guarded {
		reach := c.g.Reaches(func(callee string) (string, bool) {
			if _, ok := c.direct[callee][lock]; ok {
				return "acquires " + shortLock(lock), true
			}
			for _, f := range analysis.FactsFor[Acquires](c.pass.Facts, callee) {
				if f.Lock == lock {
					return "acquires " + shortLock(lock), true
				}
			}
			return "", false
		})
		m := map[string]string{}
		for _, fn := range c.g.Functions() {
			if _, ok := c.direct[fn][lock]; ok {
				m[fn] = analysis.ShortName(fn) + " acquires " + shortLock(lock) + " directly"
			} else if via, ok := reach[fn]; ok {
				m[fn] = via
			}
			if via, ok := m[fn]; ok {
				c.pass.Facts.Export(fn, Acquires{Lock: lock, Via: via})
			}
		}
		c.chains[lock] = m
	}
}

// acquisitionChain reports whether callee acquires lock (locally or
// per an imported fact), returning the chain for the report.
func (c *checker) acquisitionChain(lock, callee string) (string, bool) {
	if via, ok := c.chains[lock][callee]; ok {
		return via, true
	}
	for _, f := range analysis.FactsFor[Acquires](c.pass.Facts, callee) {
		if f.Lock == lock {
			return f.Via, true
		}
	}
	return "", false
}

// seedNamedContexts queues whole-body contexts for *Locked-suffix
// methods of guarded types and //statlint:locked-annotated functions.
func (c *checker) seedNamedContexts() {
	for _, fn := range c.g.Functions() {
		decl := c.g.Decls[fn]
		if decl.Recv != nil && strings.HasSuffix(decl.Name.Name, "Locked") {
			fnObj, ok := c.pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fnObj.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			n := namedOf(recv.Type())
			if n == nil {
				continue
			}
			typeKey := analysis.ObjectKey(n.Obj())
			for _, lock := range c.guarded {
				if field, ok := strings.CutPrefix(lock, typeKey+"."); ok && !strings.Contains(field, ".") {
					c.enqueue(lockCtx{fn: fn, lock: lock,
						what: analysis.ShortName(fn) + " is a *Locked method (caller must hold " + shortLock(lock) + ")"})
				}
			}
		}
		if arg, ok := lockedDirective(decl); ok {
			lock := arg
			if !strings.Contains(arg, "/") {
				lock = c.pass.Pkg.Path() + "." + arg
			}
			if !c.isGuarded(lock) {
				c.pass.Reportf(decl.Pos(), "statlint:locked: %q does not name a //statlint:guards-annotated lock", arg)
				continue
			}
			c.enqueue(lockCtx{fn: fn, lock: lock,
				what: analysis.ShortName(fn) + " is annotated //statlint:locked " + arg})
		}
	}
}

// lockedDirective extracts a //statlint:locked argument from a
// function's doc comment.
func lockedDirective(decl *ast.FuncDecl) (string, bool) {
	const prefix = "//statlint:locked"
	if decl.Doc == nil {
		return "", false
	}
	for _, cmt := range decl.Doc.List {
		if !strings.HasPrefix(cmt.Text, prefix) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(cmt.Text, prefix))
		if len(fields) > 0 {
			return fields[0], true
		}
		return "", true
	}
	return "", false
}

// seedRegionContexts queues the lexical lock-held regions: from each
// acquire to its matching non-deferred release, or to the end of the
// body when the release is deferred (the repo's dominant pattern).
func (c *checker) seedRegionContexts() {
	for _, fn := range c.g.Functions() {
		events := c.events[fn]
		if len(events) == 0 {
			continue
		}
		body := c.g.Decls[fn].Body
		held := map[string]token.Pos{} // lock → region start
		for _, ev := range events {
			if ev.acquire {
				if !ev.deferred {
					if _, already := held[ev.lock]; !already {
						held[ev.lock] = ev.pos
					}
				}
				continue
			}
			if ev.deferred {
				continue // deferred unlock: region runs to end of body
			}
			if start, ok := held[ev.lock]; ok {
				c.enqueueRegion(fn, ev.lock, start, ev.pos)
				delete(held, ev.lock)
			}
		}
		for lock, start := range held {
			c.enqueueRegion(fn, lock, start, body.End())
		}
	}
}

func (c *checker) enqueueRegion(fn, lock string, start, end token.Pos) {
	line := c.pass.Fset.Position(start).Line
	c.enqueue(lockCtx{fn: fn, lock: lock, start: start, end: end,
		what: fmt.Sprintf("%s holds it since line %d", analysis.ShortName(fn), line)})
}

// seedImplContexts turns CalledUnderLock facts (interface methods
// invoked under a lock, possibly in another package) into whole-body
// contexts for every local implementation. Returns true when a new
// context was queued.
func (c *checker) seedImplContexts() bool {
	changed := false
	for _, kf := range analysis.AllFacts[CalledUnderLock](c.pass.Facts) {
		dedupe := "impl\x00" + kf.Key + "\x00" + kf.Fact.Lock
		if c.seenSite[dedupe] {
			continue
		}
		c.seenSite[dedupe] = true
		pkgPath, ifaceName, method, ok := splitMethodKey(kf.Key)
		if !ok {
			continue
		}
		iface := c.lookupInterface(pkgPath, ifaceName)
		if iface == nil {
			continue
		}
		scope := c.pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, c.pass.Pkg, method)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() != c.pass.Pkg {
				continue
			}
			fnKey := analysis.ObjectKey(fn)
			if _, ok := c.g.Decls[fnKey]; !ok {
				continue
			}
			if c.enqueue(lockCtx{fn: fnKey, lock: kf.Fact.Lock,
				what: analysis.ShortName(fnKey) + " implements " + analysis.ShortName(kf.Key) +
					", which is invoked with " + shortLock(kf.Fact.Lock) + " held"}) {
				changed = true
			}
		}
	}
	return changed
}

// splitMethodKey splits "pkgpath.Type.Method" (pkgpath may contain
// dots and slashes) into its components.
func splitMethodKey(key string) (pkgPath, typeName, method string, ok bool) {
	tail := key
	prefix := ""
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		prefix, tail = key[:i+1], key[i+1:]
	}
	parts := strings.Split(tail, ".")
	if len(parts) != 3 {
		return "", "", "", false
	}
	return prefix + parts[0], parts[1], parts[2], true
}

// lookupInterface resolves an interface type by package path and name,
// searching the current package and its transitive imports.
func (c *checker) lookupInterface(pkgPath, name string) *types.Interface {
	var scope *types.Scope
	if pkgPath == c.pass.Pkg.Path() {
		scope = c.pass.Pkg.Scope()
	} else if p := findImport(c.pass.Pkg, pkgPath, map[string]bool{}); p != nil {
		scope = p.Scope()
	}
	if scope == nil {
		return nil
	}
	tn, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// findImport locates path among pkg's transitive imports.
func findImport(pkg *types.Package, path string, seen map[string]bool) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
		if seen[imp.Path()] {
			continue
		}
		seen[imp.Path()] = true
		if found := findImport(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}

// seedCallbackSites expands CallsParamUnderLock facts at local call
// sites: a function literal passed in the marked position becomes an
// under-lock context; a plain parameter passed through propagates the
// fact to the caller. Returns true on any new context or fact.
func (c *checker) seedCallbackSites() bool {
	changed := false
	for _, caller := range c.g.Functions() {
		for _, e := range c.g.Edges[caller] {
			for _, f := range analysis.FactsFor[CallsParamUnderLock](c.pass.Facts, e.Callee) {
				if f.Param < 0 || f.Param >= len(e.Args) {
					continue
				}
				dedupe := fmt.Sprintf("site\x00%s\x00%d\x00%s\x00%d", caller, e.Pos, f.Lock, f.Param)
				if c.seenSite[dedupe] {
					continue
				}
				c.seenSite[dedupe] = true
				arg := ast.Unparen(e.Args[f.Param])
				switch arg := arg.(type) {
				case *ast.FuncLit:
					if c.enqueue(lockCtx{fn: caller, lock: f.Lock, start: arg.Pos(), end: arg.End(),
						what: "this callback is invoked by " + analysis.ShortName(e.Callee) +
							" with " + shortLock(f.Lock) + " held"}) {
						changed = true
					}
				case *ast.Ident:
					if idx, ok := c.paramIndex(caller, arg); ok {
						if c.exportParamFact(caller, f.Lock, idx) {
							changed = true
						}
					}
				}
			}
		}
	}
	return changed
}

// paramIndex resolves ident to a parameter index of fn's signature.
func (c *checker) paramIndex(fn string, ident *ast.Ident) (int, bool) {
	decl, ok := c.g.Decls[fn]
	if !ok {
		return 0, false
	}
	obj := c.pass.TypesInfo.Uses[ident]
	v, ok := obj.(*types.Var)
	if !ok {
		return 0, false
	}
	fnObj, ok := c.pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return 0, false
	}
	params := fnObj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return i, true
		}
	}
	return 0, false
}

// exportParamFact exports CallsParamUnderLock once per (fn, lock,
// param) triple.
func (c *checker) exportParamFact(fn, lock string, param int) bool {
	dedupe := fmt.Sprintf("%s\x00%s\x00%d", fn, lock, param)
	if c.seenParam[dedupe] {
		return false
	}
	c.seenParam[dedupe] = true
	c.pass.Facts.Export(fn, CallsParamUnderLock{Lock: lock, Param: param})
	return true
}

// enqueue queues a context unless an identical one was processed.
func (c *checker) enqueue(ctx lockCtx) bool {
	key := fmt.Sprintf("%s\x00%s\x00%d\x00%d", ctx.fn, ctx.lock, ctx.start, ctx.end)
	if c.ctxSeen[key] {
		return false
	}
	c.ctxSeen[key] = true
	c.queue = append(c.queue, ctx)
	return true
}

// inRange reports whether pos falls inside the context.
func (ctx *lockCtx) inRange(pos token.Pos) bool {
	if ctx.start == token.NoPos && ctx.end == token.NoPos {
		return true
	}
	return pos > ctx.start && pos < ctx.end
}

// processCtx checks one under-lock context: calls to acquirers are
// reported, direct re-acquisitions are reported, interface calls taint
// their method (CalledUnderLock), calls of func-typed parameters taint
// the enclosing function (CallsParamUnderLock), and calls to plain
// local functions extend the context into the callee.
func (c *checker) processCtx(ctx lockCtx) {
	for _, e := range c.g.Edges[ctx.fn] {
		if !ctx.inRange(e.Pos) {
			continue
		}
		if via, ok := c.acquisitionChain(ctx.lock, e.Callee); ok {
			c.report(e.Pos, ctx.lock,
				"call to %s can deadlock: %s, and %s", analysis.ShortName(e.Callee), ctx.what, via)
			continue
		}
		if e.Interface {
			dedupe := "iface\x00" + e.Callee + "\x00" + ctx.lock
			if !c.seenIface[dedupe] {
				c.seenIface[dedupe] = true
				c.pass.Facts.Export(e.Callee, CalledUnderLock{Lock: ctx.lock})
			}
			continue
		}
		if _, local := c.g.Decls[e.Callee]; local && e.Callee != ctx.fn {
			c.enqueue(lockCtx{fn: e.Callee, lock: ctx.lock,
				what: analysis.ShortName(e.Callee) + " is called with " + shortLock(ctx.lock) +
					" held (" + ctx.what + ")"})
		}
	}
	// Direct re-acquisition inside the context (skip the acquire that
	// opened a region context — it is the region's own start).
	for _, ev := range c.events[ctx.fn] {
		if ev.acquire && ev.lock == ctx.lock && ctx.inRange(ev.pos) && ev.pos != ctx.start {
			c.report(ev.pos, ctx.lock, "re-entrant acquisition of %s: %s", shortLock(ctx.lock), ctx.what)
		}
	}
	c.scanParamCalls(ctx)
}

// scanParamCalls finds calls of func-typed parameters of ctx.fn inside
// the context and exports CallsParamUnderLock facts for them.
func (c *checker) scanParamCalls(ctx lockCtx) {
	decl, ok := c.g.Decls[ctx.fn]
	if !ok {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !ctx.inRange(call.Pos()) {
			return true
		}
		ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if idx, ok := c.paramIndex(ctx.fn, ident); ok {
			c.exportParamFact(ctx.fn, ctx.lock, idx)
		}
		return true
	})
}

// report emits one deduplicated diagnostic.
func (c *checker) report(pos token.Pos, lock, format string, args ...any) {
	key := c.pass.Fset.Position(pos).String() + "\x00" + lock
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, format, args...)
}

// shortLock strips the package path off a lock key for messages.
func shortLock(lock string) string { return analysis.ShortName(lock) }

// namedOf strips pointers and returns the named type behind t.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
