// Package goroleak flags `go` statements whose goroutine can block
// forever, leaking the goroutine (and whatever it pins) under load.
// The launched body — a function literal, or a declared function
// chased through the package call graph — is searched for:
//
//   - a channel send with no escape: the channel is unbuffered (or of
//     unknown provenance) and the send is not in a select with a
//     default or ctx.Done() arm. If every receiver is gone, the send
//     parks forever.
//   - a channel receive or range with no escape: the channel is never
//     close()d anywhere in the package and the receive has no
//     select escape. A channel nobody closes keeps the ranging
//     goroutine alive past its producers.
//   - a select none of whose arms can be guaranteed to fire: no
//     default, no ctx.Done() arm, no arm on a package-closed channel
//     or a time.After timer.
//   - a sync.WaitGroup.Done that is not deferred: an early return or
//     panic between the work and the Done parks the Wait side
//     forever.
//
// Escape evidence is collected package-wide by provenance: a struct
// field (TypeName.field) or local that some creation site makes with
// a non-zero buffer is "buffered" (sends cannot park while slack
// remains — the repo's one-shot result channels), unless another
// site makes it unbuffered; a channel that appears in any close()
// call is "closed" (receives and ranges terminate — the WAL writer's
// request queue).
//
// The package also reports time.NewTicker calls whose ticker is
// never Stop()ed in the same function: an unstopped ticker pins its
// goroutine and timer forever.
//
// Program edges own their goroutines' lifecycles interactively, so
// packages under cmd/ and examples/, and _test.go files, are exempt.
package goroleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the goroleak entry point.
var Analyzer = &lint.Analyzer{
	Name: "goroleak",
	Doc:  "goroutines must not block forever: channel ops need a ctx.Done()/close/buffer escape, WaitGroup.Done must be deferred, tickers must be stopped",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if pass.EdgePackage() {
		return nil
	}
	esc := collectEscapes(pass)
	c := &checker{pass: pass, esc: esc, graph: pass.CallGraph()}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.checkGo(g)
			}
			return true
		})
	}
	c.checkTickers()
	return nil
}

// escapes is the package-wide channel-provenance evidence.
type escapes struct {
	closed     map[string]bool // chan keys that some close() releases
	buffered   map[string]bool // chan keys with a buffered make site
	unbuffered map[string]bool // chan keys with an unbuffered make site
}

// chanKey identifies a channel by provenance: a struct field as
// "TypeName.field" (any instance — creation sites and uses unify on
// the field), a local or parameter by its object identity. Unknown
// shapes key to "".
func chanKey(info *types.Info, x ast.Expr) string {
	x = ast.Unparen(x)
	switch e := x.(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.Underlying().(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj != nil {
			return fmt.Sprintf("%s@%d", obj.Id(), obj.Pos())
		}
	}
	return ""
}

// collectEscapes scans the whole package (tests excluded) for close()
// calls and channel creation sites.
func collectEscapes(pass *lint.Pass) *escapes {
	info := pass.TypesInfo
	esc := &escapes{
		closed:     make(map[string]bool),
		buffered:   make(map[string]bool),
		unbuffered: make(map[string]bool),
	}
	recordMake := func(dst ast.Expr, src ast.Expr, structType types.Type, fieldName string) {
		call, ok := ast.Unparen(src).(*ast.CallExpr)
		if !ok {
			return
		}
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent || id.Name != "make" {
			return
		}
		tv, ok := info.Types[call]
		if !ok {
			return
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return
		}
		key := ""
		switch {
		case dst != nil:
			key = chanKey(info, dst)
		case structType != nil:
			t := structType
			if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				key = named.Obj().Name() + "." + fieldName
			}
		}
		if key == "" {
			return
		}
		if len(call.Args) >= 2 {
			esc.buffered[key] = true
		} else {
			esc.unbuffered[key] = true
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
					// The builtin close: its operand escapes receivers.
					if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" && len(x.Args) == 1 {
						if key := chanKey(info, x.Args[0]); key != "" {
							esc.closed[key] = true
						}
					}
				}
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						recordMake(x.Lhs[i], x.Rhs[i], nil, "")
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						recordMake(x.Names[i], x.Values[i], nil, "")
					}
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[x]
				if !ok {
					return true
				}
				for _, el := range x.Elts {
					kv, isKV := el.(*ast.KeyValueExpr)
					if !isKV {
						continue
					}
					if key, isIdent := kv.Key.(*ast.Ident); isIdent {
						recordMake(nil, kv.Value, tv.Type, key.Name)
					}
				}
			}
			return true
		})
	}
	return esc
}

// sendEscapes reports whether a send on the channel can never park
// forever by provenance: every visible creation site is buffered.
func (e *escapes) sendEscapes(key string) bool {
	return key != "" && e.buffered[key] && !e.unbuffered[key]
}

// recvEscapes reports whether a receive terminates by provenance:
// the channel is closed somewhere in the package.
func (e *escapes) recvEscapes(key string) bool {
	return key != "" && e.closed[key]
}

// checker walks goroutine bodies.
type checker struct {
	pass  *lint.Pass
	esc   *escapes
	graph *lint.CallGraph
	seen  map[token.Pos]bool
}

// report emits once per position: two go sites chasing into the same
// helper must not double-report its blocking op.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.seen == nil {
		c.seen = make(map[token.Pos]bool)
	}
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// checkGo analyses one go statement's launched body.
func (c *checker) checkGo(g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		c.checkBody(g, lit.Body, make(map[*types.Func]bool))
		return
	}
	obj := lint.CalleeObject(c.pass.TypesInfo, g.Call)
	if node := c.graph.NodeOf(obj); node != nil {
		c.checkBody(g, node.Decl.Body, map[*types.Func]bool{node.Func: true})
	}
}

// checkBody searches one body for forever-blocking shapes, chasing
// in-package calls transitively (visited breaks cycles). Nested go
// statements are skipped — each launch is checked at its own site.
func (c *checker) checkBody(g *ast.GoStmt, body ast.Node, visited map[*types.Func]bool) {
	info := c.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !c.selectEscapes(x) {
				c.report(x.Pos(),
					"goroutine may block forever: select has no default, ctx.Done() arm, or arm on a closed/timer channel")
			}
			// Arm bodies still run; comm clauses are judged as part of
			// the select, so skip re-reporting them individually.
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						c.checkBody(g, stmt, visited)
					}
				}
			}
			return false
		case *ast.SendStmt:
			if key := chanKey(info, x.Chan); !c.esc.sendEscapes(key) {
				c.report(x.Pos(),
					"goroutine may block forever on this channel send: no buffered creation site and no select escape; add a ctx.Done() arm or buffer the channel")
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				if key := chanKey(info, x.X); !c.esc.recvEscapes(key) && !timerChan(info, x.X) {
					c.report(x.Pos(),
						"goroutine may block forever on this channel receive: the channel is never closed and there is no select escape")
				}
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[x.X]
			if ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if key := chanKey(info, x.X); !c.esc.recvEscapes(key) && !timerChan(info, x.X) {
						c.report(x.X.Pos(),
							"goroutine ranges over a channel that is never closed; it can never exit the loop")
					}
				}
			}
		case *ast.DeferStmt:
			// A deferred Done is the correct shape; don't descend into
			// the call (a deferred literal's body is still walked).
			if c.isWaitGroupDone(x.Call) {
				return false
			}
		case *ast.CallExpr:
			if c.isWaitGroupDone(x) {
				c.report(x.Pos(),
					"WaitGroup.Done must be deferred at the top of the goroutine: an early return or panic before this call parks Wait forever")
				return true
			}
			if obj := lint.CalleeObject(info, x); obj != nil {
				if node := c.graph.NodeOf(obj); node != nil {
					if fn := node.Func; !visited[fn] {
						visited[fn] = true
						c.checkBody(g, node.Decl.Body, visited)
					}
				}
			}
		}
		return true
	})
}

// selectEscapes reports whether a select is guaranteed to make
// progress eventually: a default arm, a ctx.Done() receive, a receive
// on a package-closed channel, or a timer channel.
func (c *checker) selectEscapes(sel *ast.SelectStmt) bool {
	info := c.pass.TypesInfo
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, isRecv := ast.Unparen(s.X).(*ast.UnaryExpr); isRecv && u.Op.String() == "<-" {
				recv = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, isRecv := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); isRecv && u.Op.String() == "<-" {
					recv = u.X
				}
			}
		}
		if recv == nil {
			continue
		}
		if isCtxDone(info, recv) || timerChan(info, recv) {
			return true
		}
		if key := chanKey(info, recv); c.esc.recvEscapes(key) {
			return true
		}
	}
	return false
}

// isCtxDone matches ctx.Done() receives.
func isCtxDone(info *types.Info, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := lint.CalleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Done" {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// timerChan matches time.After(...)/time.Tick(...) results and
// Timer/Ticker .C fields: channels the runtime eventually fires.
func timerChan(info *types.Info, x ast.Expr) bool {
	x = ast.Unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		obj := lint.CalleeObject(info, call)
		return lint.IsPkgFunc(obj, "time", "After") || lint.IsPkgFunc(obj, "time", "Tick")
	}
	if sel, ok := x.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			recv := s.Recv()
			if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				obj := named.Obj()
				return obj.Pkg() != nil && obj.Pkg().Path() == "time"
			}
		}
	}
	return false
}

// isWaitGroupDone matches (*sync.WaitGroup).Done calls.
func (c *checker) isWaitGroupDone(call *ast.CallExpr) bool {
	obj := lint.CalleeObject(c.pass.TypesInfo, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Done" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return strings.Contains(sig.Recv().Type().String(), "WaitGroup")
}

// checkTickers reports time.NewTicker results never stopped in the
// declaring function.
func (c *checker) checkTickers() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tickers := make(map[types.Object]ast.Expr)
			stopped := make(map[types.Object]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for i := range x.Lhs {
						if i >= len(x.Rhs) {
							break
						}
						call, isCall := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
						if !isCall || !lint.IsPkgFunc(lint.CalleeObject(info, call), "time", "NewTicker") {
							continue
						}
						if id, isIdent := x.Lhs[i].(*ast.Ident); isIdent && id.Name != "_" {
							if obj := info.Defs[id]; obj != nil {
								tickers[obj] = call
							}
						}
					}
				case *ast.CallExpr:
					sel, isSel := x.Fun.(*ast.SelectorExpr)
					if !isSel || sel.Sel.Name != "Stop" {
						return true
					}
					if id, isIdent := ast.Unparen(sel.X).(*ast.Ident); isIdent {
						if obj := info.Uses[id]; obj != nil {
							stopped[obj] = true
						}
					}
				}
				return true
			})
			for obj, site := range tickers {
				if !stopped[obj] {
					c.pass.Reportf(site.Pos(),
						"time.NewTicker result is never Stop()ed in this function; an unstopped ticker leaks its goroutine and timer")
				}
			}
		}
	}
}
