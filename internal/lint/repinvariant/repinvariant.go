// Package repinvariant checks the cluster replication protocol's
// structural invariants — the properties PROTOCOL.md's replication
// section promises and a code review can silently lose:
//
//   - Term monotonicity: a replication term is a fencing token, so
//     comparing two terms with == or != accepts (or rejects) exactly
//     one history and breaks monotonic takeover. Every term
//     comparison must be ordered (<, <=, >, >=); equality acceptance
//     of a stale term is how a deposed primary keeps writing.
//
//   - Quorum journalling: in a package that implements the
//     replication wait (declares waitReplicated), every Journal*
//     mutation path must transitively reach waitReplicated before it
//     can return — a journal method that skips the quorum ack
//     acknowledges writes a failover can lose.
//
//   - Goroutine lifecycle: in a replication package (one declaring
//     waitReplicated), every goroutine launch must be accounted —
//     wg.Add(1) immediately before the go statement and a deferred
//     wg.Done() in the launched body — so Close can actually wait for
//     heartbeat/lease/stream goroutines to terminate.
//
// Test files are exempt throughout: tests legitimately pin exact
// terms and launch helper goroutines. (The client-port fence that
// PROTOCOL.md's replication section also promises is pinned to the
// opcode table, so the schema analyzer owns it.)
package repinvariant

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the repinvariant entry point.
var Analyzer = &lint.Analyzer{
	Name: "repinvariant",
	Doc:  "replication invariants: monotonic term comparisons, Journal* paths reach the quorum ack, accounted goroutine lifecycles",
	Run:  run,
}

func run(pass *lint.Pass) error {
	checkTermComparisons(pass)
	checkQuorumJournal(pass)
	return nil
}

// --- Term monotonicity -----------------------------------------------------

// termLike reports whether e names a replication term: an identifier
// or field selector whose final name is "term" or ends in "Term".
func termLike(e ast.Expr) bool {
	var name string
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	default:
		return false
	}
	lower := strings.ToLower(name)
	return lower == "term" || strings.HasSuffix(lower, "term")
}

// checkTermComparisons flags ==/!= between two term-named values.
func checkTermComparisons(pass *lint.Pass) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !termLike(be.X) || !termLike(be.Y) {
				return true
			}
			pass.Reportf(be.Pos(),
				"term comparison with %s is not monotonic: a term is a fencing token, compare with an ordering (>=, >) so stale terms are rejected and newer ones win",
				be.Op)
			return true
		})
	}
}

// --- Quorum journalling ----------------------------------------------------

// quorumAnchor is the function every mutation path must reach before
// replying; declaring it marks a package as a replication
// implementation.
const quorumAnchor = "waitReplicated"

// replicationPackage reports whether the package declares the quorum
// anchor, returning its call-graph presence.
func replicationPackage(cg *lint.CallGraph) bool {
	for _, node := range cg.All() {
		if node.Func.Name() == quorumAnchor {
			return true
		}
	}
	return false
}

// checkQuorumJournal requires every Journal* method in a replication
// package to transitively reach waitReplicated, and polices goroutine
// lifecycles in the same scope.
func checkQuorumJournal(pass *lint.Pass) {
	cg := pass.CallGraph()
	if !replicationPackage(cg) {
		return
	}
	// reaches memoises "can this function reach the anchor".
	reaches := make(map[*types.Func]bool)
	var walk func(fn *types.Func, seen map[*types.Func]bool) bool
	walk = func(fn *types.Func, seen map[*types.Func]bool) bool {
		if done, ok := reaches[fn]; ok {
			return done
		}
		if seen[fn] {
			return false
		}
		seen[fn] = true
		node := cg.Nodes[fn]
		if node == nil {
			return false
		}
		for _, site := range node.Sites {
			if site.Callee.Name() == quorumAnchor {
				reaches[fn] = true
				return true
			}
			for _, t := range site.Targets {
				if walk(t, seen) {
					reaches[fn] = true
					return true
				}
			}
		}
		return false
	}
	for _, node := range cg.All() {
		if !strings.HasPrefix(node.Func.Name(), "Journal") {
			continue
		}
		if pass.InTestFile(node.Decl.Pos()) {
			continue
		}
		if !walk(node.Func, make(map[*types.Func]bool)) {
			pass.Reportf(node.Decl.Pos(),
				"mutation path %s never reaches %s: replies must wait for the quorum-ack cluster journal, or a failover loses the write",
				node.Func.Name(), quorumAnchor)
		}
	}
	checkGoroutineLifecycles(pass, cg)
}

// checkGoroutineLifecycles enforces wg.Add(1)-before-go and deferred
// wg.Done() inside launched bodies, in replication packages only.
func checkGoroutineLifecycles(pass *lint.Pass, cg *lint.CallGraph) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		// Map each go statement to the statement preceding it in its
		// block.
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, st := range block.List {
				gs, ok := st.(*ast.GoStmt)
				if !ok {
					continue
				}
				var prev ast.Stmt
				if i > 0 {
					prev = block.List[i-1]
				}
				checkOneLaunch(pass, cg, gs, prev)
			}
			return true
		})
		// go statements that are not direct block members (e.g. inside
		// an if without braces — impossible in Go — or case clauses).
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for i, st := range cc.Body {
				gs, ok := st.(*ast.GoStmt)
				if !ok {
					continue
				}
				var prev ast.Stmt
				if i > 0 {
					prev = cc.Body[i-1]
				}
				checkOneLaunch(pass, cg, gs, prev)
			}
			return true
		})
	}
}

// checkOneLaunch validates one go statement's accounting.
func checkOneLaunch(pass *lint.Pass, cg *lint.CallGraph, gs *ast.GoStmt, prev ast.Stmt) {
	if !isWaitGroupCallStmt(pass.TypesInfo, prev, "Add") {
		pass.Reportf(gs.Pos(),
			"goroutine launched without lifecycle accounting: precede the go statement with wg.Add(1) so Close can wait for termination")
		return
	}
	if !launchDefersDone(pass.TypesInfo, cg, gs.Call) {
		pass.Reportf(gs.Pos(),
			"launched goroutine never defers wg.Done(): the matching wg.Add(1) makes Close wait forever")
	}
}

// isWaitGroupCallStmt reports whether st is a bare call to
// (*sync.WaitGroup).<name>.
func isWaitGroupCallStmt(info *types.Info, st ast.Stmt, name string) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	return isWaitGroupCall(info, call, name)
}

func isWaitGroupCall(info *types.Info, call *ast.CallExpr, name string) bool {
	obj := lint.CalleeObject(info, call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		obj.Name() == name
}

// launchDefersDone reports whether the launched call's body defers
// wg.Done(): a function literal is inspected directly, a named
// in-package callee through the call graph. Unresolvable callees
// (external functions, func values) pass — the launch was accounted,
// and the body is outside this package's view.
func launchDefersDone(info *types.Info, cg *lint.CallGraph, call *ast.CallExpr) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			ds, ok := n.(*ast.DeferStmt)
			if ok && isWaitGroupCall(info, ds.Call, "Done") {
				found = true
			}
			return !found
		})
		return found
	}
	obj := lint.CalleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return true
	}
	node := cg.Nodes[fn]
	if node == nil {
		return true
	}
	for _, site := range node.Sites {
		if site.Defer && site.Callee.Pkg() != nil &&
			site.Callee.Pkg().Path() == "sync" && site.Callee.Name() == "Done" {
			return true
		}
	}
	return false
}
