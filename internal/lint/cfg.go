package lint

// Flow-sensitive facility: per-function basic-block control-flow
// graphs built from go/ast, plus a generic forward worklist solver
// over analyzer-supplied lattice states. Pass.CFG(fn) caches graphs on the Package next to the call
// graph and the taint dataflow, so every analyzer of a package shares
// one construction.
//
// The graph follows the x/tools/go/cfg conventions: a block's Nodes
// are the *leaf* statements and condition expressions executed in it,
// in order. Compound statements never appear whole — an if/for/switch
// is decomposed into blocks and edges — with one deliberate
// exception: a RangeStmt appears as the last node of its loop-header
// block, standing for the per-iteration key/value bind and the use of
// the ranged operand (its body belongs to other blocks; use
// ShallowInspect to visit a node without crossing into statement
// bodies or function literals).
//
// Short-circuit conditions are split: `a && b` evaluates a in one
// block with a False edge bypassing b, so an analyzer sees exactly
// which atoms a path evaluated. True/False edges carry the condition
// atom in Edge.Cond, which is how the release analyzer names the
// branch a leaked value took.
//
// Exits: every return wires an EdgeReturn to the Exit block, a
// terminal call (panic, os.Exit, log.Fatal*, runtime.Goexit) wires an
// EdgePanic, and falling off the end wires a plain EdgeSeq. Deferred
// calls are not edges — a DeferStmt is an ordinary node; a
// flow-sensitive analyzer models arming in its own lattice and
// applies armed defers when its transfer function reaches a
// ReturnStmt, a terminal call, or the fall-off edge, which is exactly
// how a deferred release covers panic exits.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies a control-flow edge.
type EdgeKind uint8

const (
	// EdgeSeq is unconditional sequencing (including loop back edges
	// and the fall-off-the-end edge into Exit).
	EdgeSeq EdgeKind = iota
	// EdgeTrue is taken when the source block's last condition atom
	// evaluates true (for a range header: another element exists).
	EdgeTrue
	// EdgeFalse is the complementary branch.
	EdgeFalse
	// EdgeReturn leads from a return statement to Exit.
	EdgeReturn
	// EdgePanic leads from a terminal call (panic, os.Exit,
	// log.Fatal*, runtime.Goexit) to Exit.
	EdgePanic
)

// Edge is one directed control-flow edge.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
	// Cond is the condition atom controlling a True/False edge (nil
	// for range headers and every other kind).
	Cond ast.Expr
}

// Block is one basic block.
type Block struct {
	// Index is the block's position in CFG.Blocks (creation order;
	// Entry is 0).
	Index int
	// Nodes are the leaf statements and condition expressions executed
	// in this block, in order.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// CFG is one function's control-flow graph.
type CFG struct {
	// Decl is the declaration the graph was built from (nil when built
	// from a bare body, e.g. a function literal).
	Decl *ast.FuncDecl
	// Entry has no predecessors; Exit has no successors. Exit's Nodes
	// are always empty.
	Entry, Exit *Block
	// Blocks lists every block, including unreachable ones (dead code
	// after a return still parses into blocks with no predecessors).
	Blocks []*Block
}

// CFG returns fn's control-flow graph, building it on first use and
// caching it on the package like the call graph, so every analyzer of
// the package shares one construction per function.
func (p *Pass) CFG(fn *ast.FuncDecl) *CFG {
	if fn == nil || fn.Body == nil {
		return nil
	}
	if p.pkg == nil {
		return NewCFG(fn, p.TypesInfo)
	}
	if p.pkg.cfgs == nil {
		p.pkg.cfgs = make(map[*ast.FuncDecl]*CFG)
	}
	if c := p.pkg.cfgs[fn]; c != nil {
		return c
	}
	c := NewCFG(fn, p.TypesInfo)
	p.pkg.cfgs[fn] = c
	return c
}

// NewCFG builds the graph for one declaration. info resolves callees
// for terminal-call detection; it may be nil (then no call is treated
// as terminal).
func NewCFG(decl *ast.FuncDecl, info *types.Info) *CFG {
	c := NewBodyCFG(decl.Body, info)
	c.Decl = decl
	return c
}

// NewBodyCFG builds the graph for a bare body (function literals).
func NewBodyCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	c := &CFG{}
	b := &cfgBuilder{c: c, info: info, labels: make(map[string]*Block)}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	b.stmtList(body.List)
	b.edge(b.cur, c.Exit, EdgeSeq, nil)
	return c
}

// cfgBuilder grows a CFG one statement at a time. cur is the block
// under construction; control transfers replace it.
type cfgBuilder struct {
	c    *CFG
	info *types.Info
	cur  *Block
	// targets is the enclosing break/continue stack, innermost last.
	targets []breakTarget
	// fall is the next case-clause body, for fallthrough.
	fall *Block
	// labels maps label names to their blocks (created on first
	// mention, so forward gotos resolve).
	labels map[string]*Block
}

// breakTarget is one enclosing breakable construct.
type breakTarget struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind, cond ast.Expr) {
	e := &Edge{From: from, To: to, Kind: kind, Cond: cond}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// terminate ends the current block with an edge and starts an
// unreachable continuation for any trailing dead statements.
func (b *cfgBuilder) terminate(to *Block, kind EdgeKind) {
	b.edge(b.cur, to, kind, nil)
	b.cur = b.newBlock()
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findTarget resolves a break/continue to its enclosing construct.
func (b *cfgBuilder) findTarget(label *ast.Ident, needContinue bool) *breakTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needContinue && t.continueTo == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// cond wires the short-circuit evaluation of e starting in the
// current block: control reaches t when e is true and f when it is
// false. Leaf atoms are appended to their evaluating block and
// annotate both out-edges. The current block is invalid afterwards;
// callers must set it.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	}
	b.cur.Nodes = append(b.cur.Nodes, e)
	b.edge(b.cur, t, EdgeTrue, e)
	b.edge(b.cur, f, EdgeFalse, e)
}

// stmt appends one statement to the graph. label is the enclosing
// label name ("" when unlabeled), threaded so labeled loops register
// their break/continue targets under it.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		thenB := b.newBlock()
		join := b.newBlock()
		elseB := join
		if st.Else != nil {
			elseB = b.newBlock()
		}
		b.cond(st.Cond, thenB, elseB)
		b.cur = thenB
		b.stmt(st.Body, "")
		b.edge(b.cur, join, EdgeSeq, nil)
		if st.Else != nil {
			b.cur = elseB
			b.stmt(st.Else, "")
			b.edge(b.cur, join, EdgeSeq, nil)
		}
		b.cur = join

	case *ast.ForStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if st.Post != nil {
			post = b.newBlock()
		}
		b.edge(b.cur, head, EdgeSeq, nil)
		b.cur = head
		if st.Cond != nil {
			b.cond(st.Cond, body, after)
		} else {
			b.edge(b.cur, body, EdgeSeq, nil)
		}
		b.targets = append(b.targets, breakTarget{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmt(st.Body, "")
		b.targets = b.targets[:len(b.targets)-1]
		b.edge(b.cur, post, EdgeSeq, nil)
		if st.Post != nil {
			b.cur = post
			b.stmt(st.Post, "")
			b.edge(b.cur, head, EdgeSeq, nil)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, head, EdgeSeq, nil)
		// The RangeStmt node stands for the operand use and the
		// per-iteration key/value bind (ShallowInspect stops at its
		// Body).
		head.Nodes = append(head.Nodes, st)
		b.edge(head, body, EdgeTrue, nil)
		b.edge(head, after, EdgeFalse, nil)
		b.targets = append(b.targets, breakTarget{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(st.Body, "")
		b.targets = b.targets[:len(b.targets)-1]
		b.edge(b.cur, head, EdgeSeq, nil)
		b.cur = after

	case *ast.SwitchStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		if st.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Tag)
		}
		b.switchClauses(st.Body.List, label, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt, bool) {
			return cc.List, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		// The guard (x := y.(type) or y.(type)) evaluates once, in the
		// dispatch block.
		b.cur.Nodes = append(b.cur.Nodes, st.Assign)
		b.switchClauses(st.Body.List, label, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt, bool) {
			return nil, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, breakTarget{label: label, breakTo: after})
		for _, cs := range st.Body.List {
			cc := cs.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk, EdgeSeq, nil)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after, EdgeSeq, nil)
		}
		b.targets = b.targets[:len(b.targets)-1]
		// select{} (no clauses) blocks forever: after stays unreachable.
		b.cur = after

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, st)
		b.terminate(b.c.Exit, EdgeReturn)

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if t := b.findTarget(st.Label, false); t != nil {
				b.terminate(t.breakTo, EdgeSeq)
				return
			}
		case token.CONTINUE:
			if t := b.findTarget(st.Label, true); t != nil {
				b.terminate(t.continueTo, EdgeSeq)
				return
			}
		case token.GOTO:
			b.terminate(b.labelBlock(st.Label.Name), EdgeSeq)
			return
		case token.FALLTHROUGH:
			if b.fall != nil {
				b.terminate(b.fall, EdgeSeq)
				return
			}
		}
		// Unresolvable branch (broken code): drop control.
		b.cur = b.newBlock()

	case *ast.LabeledStmt:
		lb := b.labelBlock(st.Label.Name)
		b.edge(b.cur, lb, EdgeSeq, nil)
		b.cur = lb
		b.stmt(st.Stmt, st.Label.Name)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, st)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && b.terminalCall(call) {
			b.terminate(b.c.Exit, EdgePanic)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Leaf statements: assignments, declarations, go/defer, sends,
		// inc/dec.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// switchClauses wires a (type) switch's dispatch: the current block
// fans out to one body block per clause, fallthrough chains bodies,
// and a missing default adds a direct edge to the join. split returns
// a clause's guard expressions, body, and whether it is the default.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, split func(*ast.CaseClause) ([]ast.Expr, []ast.Stmt, bool)) {
	head := b.cur
	after := b.newBlock()
	b.targets = append(b.targets, breakTarget{label: label, breakTo: after})
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	hasDefault := false
	savedFall := b.fall
	for i, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		guards, body, isDefault := split(cc)
		if isDefault {
			hasDefault = true
		}
		// Guard expressions evaluate during dispatch.
		head.Nodes = append(head.Nodes, exprNodes(guards)...)
		b.edge(head, bodies[i], EdgeSeq, nil)
		b.fall = nil
		if i+1 < len(clauses) {
			b.fall = bodies[i+1]
		}
		b.cur = bodies[i]
		b.stmtList(body)
		b.edge(b.cur, after, EdgeSeq, nil)
	}
	b.fall = savedFall
	if !hasDefault {
		b.edge(head, after, EdgeSeq, nil)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

func exprNodes(exprs []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(exprs))
	for i, e := range exprs {
		out[i] = e
	}
	return out
}

// terminalCall reports calls that never return to the caller.
func (b *cfgBuilder) terminalCall(call *ast.CallExpr) bool {
	if b.info == nil {
		return false
	}
	obj := CalleeObject(b.info, call)
	if bi, ok := obj.(*types.Builtin); ok {
		return bi.Name() == "panic"
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}

// ShallowInspect visits n and its children the way block nodes are
// meant to be read: it does not descend into statement bodies (a
// compound node like RangeStmt appears in a block only for its
// header) or into function literal bodies (a literal is a value here;
// its body is a different function). The FuncLit node itself is
// visited, so capture analyses can see it.
func ShallowInspect(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.BlockStmt:
			return false
		case nil:
			return true
		}
		if !fn(m) {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}

// --- Worklist solver -------------------------------------------------------

// FlowProblem is one forward dataflow analysis over a CFG. States
// are opaque to the solver; only the problem interprets them.
// Transfer must not mutate its input state (blocks with several
// successors reuse it).
type FlowProblem interface {
	// Boundary is the state entering Entry.
	Boundary() any
	// Transfer computes the state leaving block b given the state
	// entering it.
	Transfer(b *Block, in any) any
	// Join merges two states where control flow meets.
	Join(a, b any) any
	// Equal detects the fixed point.
	Equal(a, b any) bool
}

// EdgeRefiner optionally refines the state flowing along one edge —
// e.g. recording the branch condition a path took, or killing facts a
// condition contradicts.
type EdgeRefiner interface {
	RefineEdge(e *Edge, state any) any
}

// Solve runs a forward worklist iteration to the fixed point and
// returns the state entering each reached block. Unreachable blocks
// are absent from the result.
func (c *CFG) Solve(p FlowProblem) map[*Block]any {
	in := make(map[*Block]any, len(c.Blocks))
	seen := make(map[*Block]bool, len(c.Blocks))
	in[c.Entry] = p.Boundary()
	seen[c.Entry] = true
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	refiner, _ := p.(EdgeRefiner)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := p.Transfer(b, in[b])
		for _, e := range b.Succs {
			next := e.To
			s := out
			if refiner != nil {
				s = refiner.RefineEdge(e, s)
			}
			if seen[next] {
				merged := p.Join(in[next], s)
				if p.Equal(merged, in[next]) {
					continue
				}
				in[next] = merged
			} else {
				in[next] = s
				seen[next] = true
			}
			if !queued[next] {
				queued[next] = true
				work = append(work, next)
			}
		}
	}
	return in
}
