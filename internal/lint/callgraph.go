package lint

import (
	"go/ast"
	"go/types"
)

// Interprocedural facility: a package-level call graph over go/types
// function objects. Analyzers that need to reason across function
// boundaries (the locks analyzer's acquisition propagation,
// repinvariant's quorum-reachability search) get it from
// Pass.CallGraph(); the graph is built once per package and shared
// across analyzers.
//
// Resolution is static: direct calls bind to the named function,
// method calls bind through the static receiver type, and a call
// through an interface is additionally devirtualised to every
// in-package concrete implementation (Targets), which is how the
// graph crosses abstraction boundaries like fault's net.Conn
// wrappers, wal.FS and fault.Gate without whole-program analysis.
// Calls whose callee cannot be resolved (function values, externals)
// simply produce no edge — the graph is an under-approximation, which
// is the right default for linting: missing edges cost findings, never
// false ones.

// CallSite is one statically resolved call inside a function body.
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Callee is the static callee: a function, a concrete method, or
	// an interface method. Never nil (unresolved calls are dropped).
	Callee types.Object
	// Targets are the in-package function bodies this call can reach:
	// the callee itself when it is declared in this package, or — for
	// an interface method — every in-package concrete method whose
	// receiver implements the interface. Empty for external callees.
	Targets []*types.Func
	// Go marks a call that runs on a new goroutine: the call of a `go`
	// statement, or any call lexically inside a function literal
	// launched by one. Lock-order propagation must not cross Go edges:
	// the goroutine has its own stack.
	Go bool
	// Defer marks a call that runs at function exit: the call of a
	// `defer` statement, or any call inside a deferred literal.
	Defer bool
}

// CallNode is one declared function and its outgoing call sites, in
// lexical order. Sites inside function literals nested in the body
// are attributed to the declaring function (a literal is not a node;
// only `go`/`defer` launching is tracked, via the site flags).
type CallNode struct {
	// Func is the declared function or method object.
	Func *types.Func
	// Decl is its declaration (Body non-nil).
	Decl *ast.FuncDecl
	// Sites are the resolved calls in the body, lexical order.
	Sites []CallSite
}

// CallGraph is the package-level call graph.
type CallGraph struct {
	// Nodes maps every function declared (with a body) in the package
	// to its node.
	Nodes map[*types.Func]*CallNode
	// order preserves declaration order for deterministic iteration.
	order []*CallNode
}

// All returns the nodes in declaration order.
func (g *CallGraph) All() []*CallNode { return g.order }

// CallGraph returns the package's call graph, building it on first
// use and sharing it across every analyzer of the package.
func (p *Pass) CallGraph() *CallGraph {
	if p.pkg == nil {
		// No shared package (direct construction in tests): build fresh.
		return buildCallGraph(p.Files, p.TypesInfo, p.Pkg)
	}
	if p.pkg.cg == nil {
		p.pkg.cg = buildCallGraph(p.pkg.Files, p.pkg.Info, p.pkg.Types)
	}
	return p.pkg.cg
}

// buildCallGraph constructs the graph for one type-checked package.
func buildCallGraph(files []*ast.File, info *types.Info, pkg *types.Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}
	// Register every node first: body walks resolve Targets against
	// the full declaration set, including later declarations.
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &CallNode{Func: fn, Decl: fd}
			g.Nodes[fn] = node
			g.order = append(g.order, node)
		}
	}
	b := &cgBuilder{info: info, pkg: pkg, graph: g}
	for _, node := range g.order {
		b.node = node
		b.walk(node.Decl.Body, false, false)
	}
	return g
}

// cgBuilder accumulates call sites for one node at a time.
type cgBuilder struct {
	info  *types.Info
	pkg   *types.Package
	graph *CallGraph
	node  *CallNode

	// implCache memoises interface-method devirtualisation.
	implCache map[*types.Func][]*types.Func
}

// walk records every resolved call under n, threading the go/defer
// flags through launched function literals.
func (b *cgBuilder) walk(n ast.Node, inGo, inDefer bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.GoStmt:
			b.launch(x.Call, true, inDefer, inGo, inDefer)
			return false
		case *ast.DeferStmt:
			b.launch(x.Call, inGo, true, inGo, inDefer)
			return false
		case *ast.CallExpr:
			b.site(x, inGo, inDefer)
			return true
		}
		return true
	})
}

// launch handles the call of a go/defer statement: the call itself
// (and a launched literal's body) carries the launch flags, while the
// arguments are evaluated on the current stack and keep the enclosing
// flags.
func (b *cgBuilder) launch(call *ast.CallExpr, callGo, callDefer, argGo, argDefer bool) {
	b.site(call, callGo, callDefer)
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		b.walk(lit.Body, callGo, callDefer)
	} else {
		b.walk(call.Fun, argGo, argDefer)
	}
	for _, a := range call.Args {
		b.walk(a, argGo, argDefer)
	}
}

// site resolves and records one call expression.
func (b *cgBuilder) site(call *ast.CallExpr, inGo, inDefer bool) {
	obj := CalleeObject(b.info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	b.node.Sites = append(b.node.Sites, CallSite{
		Call:    call,
		Callee:  fn,
		Targets: b.targets(fn),
		Go:      inGo,
		Defer:   inDefer,
	})
}

// targets resolves the in-package bodies a call to fn can reach.
func (b *cgBuilder) targets(fn *types.Func) []*types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	recv := sig.Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		// Plain function or concrete method: the body is the callee's
		// own, when declared here.
		if b.graph.Nodes[fn] != nil {
			return []*types.Func{fn}
		}
		return nil
	}
	// Interface method: devirtualise to every in-package concrete
	// implementation.
	if cached, ok := b.implCache[fn]; ok {
		return cached
	}
	var out []*types.Func
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if ok && b.pkg != nil {
		for _, name := range b.pkg.Scope().Names() {
			tn, ok := b.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			impl := types.NewPointer(named)
			if !types.Implements(impl, iface) && !types.Implements(named, iface) {
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(impl, true, fn.Pkg(), fn.Name())
			cm, ok := m.(*types.Func)
			if !ok {
				continue
			}
			if b.graph.Nodes[cm] != nil {
				out = append(out, cm)
			}
		}
	}
	if b.implCache == nil {
		b.implCache = make(map[*types.Func][]*types.Func)
	}
	b.implCache[fn] = out
	return out
}
