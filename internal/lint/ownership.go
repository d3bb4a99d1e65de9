package lint

// Must-release ownership analysis over the CFG facility, behind the
// release analyzer's pool seeds. The engine tracks values a configured
// acquisition call hands out (a pooled buffer) through a forward flow
// problem whose per-variable lattice is the {live, released, escaped}
// powerset, and reports a leak when a path can reach a function exit
// with the value still live, a double release when a path releases
// twice (including a deferred release running after an explicit one),
// and any use after release.
//
// Ownership transfers interprocedurally through two fixpointed
// summaries over the package: a per-formal "takes" disposition (the
// callee releases or stores its argument on every path, so the caller
// is done with it) and a "returns owned" result summary (the callee
// is a constructor; its caller inherits the obligation). Both start
// pessimistic — callee borrows, result unowned — and only tighten, so
// the iteration is monotone.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OwnKind classifies an ownership finding.
type OwnKind uint8

const (
	// OwnLeak: some path reaches a function exit with the value live.
	OwnLeak OwnKind = iota
	// OwnDiscard: an acquisition's result is dropped on the floor.
	OwnDiscard
	// OwnDoubleRelease: a path releases the same value twice.
	OwnDoubleRelease
	// OwnUseAfterRelease: the value is read or written after release.
	OwnUseAfterRelease
	// OwnReassign: the variable is overwritten while still live,
	// losing the only reference.
	OwnReassign
)

// OwnershipFinding is one violation, positionally anchored for the
// analyzer to format.
type OwnershipFinding struct {
	Kind OwnKind
	// Pos anchors the report: the leaking acquisition, the discarding
	// statement, the second release, the offending use.
	Pos token.Pos
	// AcqPos is the acquisition site (equal to Pos for leaks).
	AcqPos token.Pos
	// RelPos is the prior release site for double-release and
	// use-after-release findings.
	RelPos token.Pos
	// Desc describes the resource ("pooled buffer from wire.GetBuf").
	Desc string
	// Name is the variable holding the value ("" for discards).
	Name string
	// Via is the branch condition of the leaking path ("" when the
	// leak is unconditional); "panic exit" marks a terminal-call path.
	Via string
}

// OwnershipConfig adapts the engine to one resource discipline.
type OwnershipConfig struct {
	// Acquire reports whether call hands out an owned value (tracked
	// when bound to a plain identifier; its first result for
	// multi-result acquisitions) and describes the resource.
	Acquire func(call *ast.CallExpr) (desc string, ok bool)
	// Release reports whether call releases a value and returns the
	// released expression (the argument of a PutBuf-style release).
	Release func(call *ast.CallExpr) (released ast.Expr, ok bool)
	// Tracks reports whether a value of type t can carry the
	// obligation at all. Only formals of tracked types are seeded into
	// the analysis — without the filter every string parameter of a
	// wrap-and-return helper would pick up a bogus consumed-argument
	// summary.
	Tracks func(t types.Type) bool
}

// ownBits is the per-path possibility set for one tracked value.
type ownBits uint8

const (
	ownLive ownBits = 1 << iota
	ownReleased
	ownEscaped
)

// vstate is one tracked variable's lattice element.
type vstate struct {
	bits ownBits
	acq  token.Pos
	desc string
	// rel is the latest release site (for double-release reports).
	rel token.Pos
	// deferred marks a release armed by defer on every path here
	// (must-view: and-merged at joins).
	deferred bool
	deferPos token.Pos
	// via is the first branch condition taken while live, naming the
	// path in leak reports.
	via string
	// param marks values seeded from formals: analyzed for release
	// discipline (summaries, use-after) but never reported as leaked —
	// the caller owns them.
	param bool
	// retEsc marks an escape through a return statement: for the
	// "takes" summary a parameter handed back to the caller is
	// borrowed, not consumed, unlike one stored into a struct, channel,
	// or goroutine.
	retEsc bool
	// errVar is the error variable bound alongside the value
	// (`v, err := f()`): on a branch proving err non-nil the value is
	// nil by convention and the obligation vanishes.
	errVar *types.Var
}

// ownState maps each tracked variable to its lattice element.
type ownState map[*types.Var]vstate

func cloneOwn(st ownState) ownState {
	out := make(ownState, len(st))
	for v, s := range st {
		out[v] = s
	}
	return out
}

// ownEngine is the per-package analysis state.
type ownEngine struct {
	pass *Pass
	cfg  *OwnershipConfig
	cg   *CallGraph
	// takes maps an in-package function to its per-formal disposition,
	// receiver first for methods: true means the callee releases or
	// stores that argument on every path.
	takes map[*types.Func][]bool
	// returnsOwned describes the resource a constructor's first result
	// carries ("" = not a constructor).
	returnsOwned map[*types.Func]string
}

// ownUnit is one analyzed function body: a declaration or a function
// literal (literals are separate units; a captured variable escapes
// in the enclosing unit and is untracked in the inner one).
type ownUnit struct {
	eng  *ownEngine
	cfg  *CFG
	fn   *types.Func // nil for literals
	body *ast.BlockStmt
	// formals are the parameter variables, receiver first.
	formals []*types.Var
	// resultVars are named result variables (empty when unnamed).
	resultVars []*types.Var

	// Per-walk return-ownership accumulators.
	recording   bool
	retAllOwned bool
	retOwnedN   int
	retDesc     string

	// consumesFormal memoization (0 unset, 1 no, 2 yes).
	consumes uint8
	// relevance memoization: 0 unset, 1 no static relevance, 2 the
	// body itself acquires or releases. When 1, relevance can still
	// arrive dynamically through a callee's summary; callees holds the
	// in-scope called functions for that check.
	relevance uint8
	callees   []*types.Func
}

// consumesFormal reports whether the unit could consume a parameter
// without any acquire/release call in sight: it has formals and its
// body contains a shape that moves ownership (a store into an
// aggregate, a channel send, a goroutine, a composite literal, a
// capturing literal). Such units still need disposition summaries.
func (u *ownUnit) consumesFormal() bool {
	if u.consumes != 0 {
		return u.consumes == 2
	}
	u.consumes = 1
	if u.fn == nil || len(u.formals) == 0 {
		return false
	}
	// A unit with no tracked formal cannot consume anything a caller
	// cares about: its disposition row would be all-false noise.
	tracked := false
	for _, p := range u.formals {
		if u.eng.cfg.Tracks(p.Type()) {
			tracked = true
			break
		}
	}
	if !tracked {
		return false
	}
	found := false
	ast.Inspect(u.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt, *ast.GoStmt, *ast.CompositeLit, *ast.FuncLit:
			found = true
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
					found = true
				}
			}
		}
		return !found
	})
	if found {
		u.consumes = 2
	}
	return found
}

type emitFn func(OwnershipFinding)

// RunOwnership analyzes every function in the package under cfg and
// returns the findings in position order.
func RunOwnership(pass *Pass, cfg *OwnershipConfig) []OwnershipFinding {
	eng := &ownEngine{
		pass:         pass,
		cfg:          cfg,
		cg:           pass.CallGraph(),
		takes:        make(map[*types.Func][]bool),
		returnsOwned: make(map[*types.Func]string),
	}
	units := eng.collectUnits()
	// Summary fixpoint: dispositions and constructor results only
	// tighten, so a handful of rounds covers any realistic call depth.
	// The summary pass also covers pure consumers — a constructor that
	// only stores its argument has no acquire or release call, but its
	// disposition is exactly what its callers need.
	for iter := 0; iter < 6; iter++ {
		changed := false
		for _, u := range units {
			if !eng.relevant(u) && !u.consumesFormal() {
				continue
			}
			exits := u.walk(u.cfg.Solve(u), nil)
			if eng.updateSummaries(u, exits) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	var finds []OwnershipFinding
	seen := make(map[OwnershipFinding]bool)
	emit := func(f OwnershipFinding) {
		if !seen[f] {
			seen[f] = true
			finds = append(finds, f)
		}
	}
	for _, u := range units {
		if !eng.relevant(u) {
			continue
		}
		u.walk(u.cfg.Solve(u), emit)
	}
	sortFindings(finds)
	return finds
}

func sortFindings(finds []OwnershipFinding) {
	for i := 1; i < len(finds); i++ {
		for j := i; j > 0 && finds[j].Pos < finds[j-1].Pos; j-- {
			finds[j], finds[j-1] = finds[j-1], finds[j]
		}
	}
}

// collectUnits builds one unit per declared function and one per
// function literal.
func (eng *ownEngine) collectUnits() []*ownUnit {
	info := eng.pass.TypesInfo
	var units []*ownUnit
	paramVars := func(ft *ast.FuncType, recv *ast.FieldList) []*types.Var {
		var out []*types.Var
		collect := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						out = append(out, v)
					}
				}
			}
		}
		collect(recv)
		collect(ft.Params)
		return out
	}
	resultVars := func(ft *ast.FuncType) []*types.Var {
		var out []*types.Var
		if ft.Results == nil {
			return nil
		}
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out = append(out, v)
				}
			}
		}
		return out
	}
	for _, file := range eng.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			units = append(units, &ownUnit{
				eng:        eng,
				cfg:        eng.pass.CFG(fd),
				fn:         fn,
				body:       fd.Body,
				formals:    paramVars(fd.Type, fd.Recv),
				resultVars: resultVars(fd.Type),
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				units = append(units, &ownUnit{
					eng:        eng,
					cfg:        NewBodyCFG(lit.Body, info),
					body:       lit.Body,
					formals:    paramVars(lit.Type, nil),
					resultVars: resultVars(lit.Type),
				})
				return true
			})
		}
	}
	return units
}

// relevant prunes units that cannot produce findings or summaries:
// no acquisition, no release, no call into a function with a known
// disposition. The body scan runs once per unit; only the dynamic
// summary lookups repeat as the fixpoint tightens.
func (eng *ownEngine) relevant(u *ownUnit) bool {
	if u.relevance == 0 {
		u.relevance = 1
		seen := make(map[*types.Func]bool)
		ast.Inspect(u.body, func(n ast.Node) bool {
			if u.relevance == 2 {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := eng.cfg.Acquire(call); ok {
				u.relevance = 2
				return false
			}
			if _, ok := eng.cfg.Release(call); ok {
				u.relevance = 2
				return false
			}
			if fn, ok := CalleeObject(eng.pass.TypesInfo, call).(*types.Func); ok && !seen[fn] {
				seen[fn] = true
				u.callees = append(u.callees, fn)
			}
			return true
		})
	}
	if u.relevance == 2 {
		return true
	}
	for _, fn := range u.callees {
		if eng.returnsOwned[fn] != "" {
			return true
		}
		for _, t := range eng.takes[fn] {
			if t {
				return true
			}
		}
	}
	return false
}

// updateSummaries recomputes u's disposition and constructor rows
// from its exit states; true reports a change.
func (eng *ownEngine) updateSummaries(u *ownUnit, exits []ownState) bool {
	if u.fn == nil {
		return false
	}
	takes := make([]bool, len(u.formals))
	for i, p := range u.formals {
		if len(exits) == 0 {
			break // no reachable exit: keep borrowing
		}
		t := true
		for _, st := range exits {
			s, ok := st[p]
			// Consumed on this path: released, or escaped into a
			// store/channel/goroutine (escape via return is the caller
			// getting its own value back — still borrowed).
			consumed := ok && (s.bits&ownLive == 0 ||
				s.bits&ownEscaped != 0 && !s.retEsc)
			if !consumed {
				t = false
				break
			}
		}
		takes[i] = t
	}
	owned := ""
	if u.retOwnedN > 0 && u.retAllOwned {
		owned = u.retDesc
	}
	changed := false
	if old := eng.takes[u.fn]; !boolsEqual(old, takes) {
		eng.takes[u.fn] = takes
		changed = true
	}
	if eng.returnsOwned[u.fn] != owned {
		eng.returnsOwned[u.fn] = owned
		changed = true
	}
	return changed
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- FlowProblem -----------------------------------------------------------

func (u *ownUnit) Boundary() any {
	st := make(ownState, len(u.formals))
	for _, p := range u.formals {
		if !u.eng.cfg.Tracks(p.Type()) {
			continue
		}
		st[p] = vstate{bits: ownLive, acq: p.Pos(), desc: "parameter " + p.Name(), param: true}
	}
	return st
}

func (u *ownUnit) Transfer(b *Block, in any) any {
	st := cloneOwn(in.(ownState))
	for _, n := range b.Nodes {
		u.step(st, n, nil)
	}
	return st
}

func (u *ownUnit) Join(a, b any) any {
	sa, sb := a.(ownState), b.(ownState)
	out := cloneOwn(sa)
	for v, s := range sb {
		prev, ok := out[v]
		if !ok {
			out[v] = s
			continue
		}
		m := prev
		m.bits |= s.bits
		if m.acq == token.NoPos || (s.acq != token.NoPos && s.acq < m.acq) {
			m.acq = s.acq
		}
		if m.desc == "" {
			m.desc = s.desc
		}
		if m.rel == token.NoPos {
			m.rel = s.rel
		}
		m.deferred = prev.deferred && s.deferred
		if m.deferPos == token.NoPos {
			m.deferPos = s.deferPos
		}
		if m.via == "" {
			m.via = s.via
		}
		m.param = prev.param || s.param
		m.retEsc = prev.retEsc || s.retEsc
		if m.errVar != s.errVar {
			m.errVar = nil
		}
		out[v] = m
	}
	return out
}

func (u *ownUnit) Equal(a, b any) bool {
	sa, sb := a.(ownState), b.(ownState)
	if len(sa) != len(sb) {
		return false
	}
	for v, s := range sa {
		if sb[v] != s {
			return false
		}
	}
	return true
}

// RefineEdge applies armed defers on edges into Exit — per path,
// before the exit join, which is what lets a deferred release cover a
// panic edge but not excuse a sibling return that armed nothing — and
// stamps branch conditions onto live values for leak-path reporting.
func (u *ownUnit) RefineEdge(e *Edge, state any) any {
	st := state.(ownState)
	if e.To == u.cfg.Exit {
		out := cloneOwn(st)
		for v, s := range out {
			if s.deferred && s.bits&ownLive != 0 {
				s.bits = s.bits&^ownLive | ownReleased
				s.rel = s.deferPos
				out[v] = s
			}
		}
		return out
	}
	if e.Cond != nil && (e.Kind == EdgeTrue || e.Kind == EdgeFalse) {
		var out ownState
		for v, s := range st {
			if s.errVar != nil && edgeProvesErr(u.eng.pass.TypesInfo, e, s.errVar) {
				// The paired error is non-nil on this edge, so by Go
				// convention the value is nil: nothing to release.
				if out == nil {
					out = cloneOwn(st)
				}
				delete(out, v)
				continue
			}
			if s.bits&ownLive != 0 && s.via == "" {
				if s.errVar != nil {
					if _, isErrTest := errTestProveKind(u.eng.pass.TypesInfo, e.Cond, s.errVar); isErrTest {
						// The surviving side of the err-nil check is not
						// a discriminating branch: every non-error path
						// goes through it, so naming it in a leak
						// message would hide the real fork.
						continue
					}
				}
				if out == nil {
					out = cloneOwn(st)
				}
				cond := types.ExprString(e.Cond)
				if e.Kind == EdgeFalse {
					cond = "!(" + cond + ")"
				}
				s.via = cond
				out[v] = s
			}
		}
		if out != nil {
			return out
		}
	}
	return state
}

// edgeProvesErr reports whether taking e proves errVar is non-nil:
// the true edge of `err != nil` or `errors.Is(err, target)`, or the
// false edge of `err == nil`.
func edgeProvesErr(info *types.Info, e *Edge, errVar *types.Var) bool {
	k, ok := errTestProveKind(info, e.Cond, errVar)
	return ok && e.Kind == k
}

// errTestProveKind recognizes a branch condition as a nil-test of
// errVar and returns the edge kind on which the error is proven
// non-nil: the true edge of `err != nil` or `errors.Is(err, target)`,
// the false edge of `err == nil`.
func errTestProveKind(info *types.Info, condExpr ast.Expr, errVar *types.Var) (EdgeKind, bool) {
	isErr := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && info.Uses[id] == errVar
	}
	switch cond := ast.Unparen(condExpr).(type) {
	case *ast.BinaryExpr:
		var other ast.Expr
		switch {
		case isErr(cond.X):
			other = cond.Y
		case isErr(cond.Y):
			other = cond.X
		default:
			return 0, false
		}
		id, ok := ast.Unparen(other).(*ast.Ident)
		if !ok {
			return 0, false
		}
		if _, isNil := info.Uses[id].(*types.Nil); !isNil {
			return 0, false
		}
		switch cond.Op {
		case token.NEQ:
			return EdgeTrue, true
		case token.EQL:
			return EdgeFalse, true
		}
		return 0, false
	case *ast.CallExpr:
		// errors.Is(err, target) true: err wraps a non-nil target.
		if len(cond.Args) != 2 || !isErr(cond.Args[0]) {
			return 0, false
		}
		fn, ok := CalleeObject(info, cond).(*types.Func)
		if ok && fn.Name() == "Is" && fn.Pkg() != nil && fn.Pkg().Path() == "errors" {
			return EdgeTrue, true
		}
	}
	return 0, false
}

// walk re-runs the transfer deterministically over the solved
// in-states (blocks in index order), emitting findings when emit is
// non-nil, and returns the per-exit-edge states for summaries.
func (u *ownUnit) walk(in map[*Block]any, emit emitFn) []ownState {
	u.recording = true
	u.retAllOwned = true
	u.retOwnedN = 0
	u.retDesc = ""
	var exits []ownState
	for _, b := range u.cfg.Blocks {
		s0, ok := in[b]
		if !ok {
			continue
		}
		st := cloneOwn(s0.(ownState))
		for _, n := range b.Nodes {
			u.step(st, n, emit)
		}
		for _, e := range b.Succs {
			if e.To != u.cfg.Exit {
				continue
			}
			post := u.RefineEdge(e, st).(ownState)
			exits = append(exits, post)
			if emit != nil {
				u.checkExit(st, post, e, emit)
			}
		}
	}
	u.recording = false
	return exits
}

// checkExit reports leaks (post-defer state) and defer-after-release
// doubles (pre-defer state) on one exit edge.
func (u *ownUnit) checkExit(pre, post ownState, e *Edge, emit emitFn) {
	for v, s := range post {
		if s.param || s.bits&ownEscaped != 0 {
			continue
		}
		if s.bits&ownLive != 0 {
			via := s.via
			if via == "" && e.Kind == EdgePanic {
				via = "panic exit"
			}
			emit(OwnershipFinding{Kind: OwnLeak, Pos: s.acq, AcqPos: s.acq, Desc: s.desc, Name: v.Name(), Via: via})
		}
	}
	for v, s := range pre {
		// A deferred release runs after this path already released
		// explicitly: the defer is the second Put.
		if s.deferred && s.bits == ownReleased {
			emit(OwnershipFinding{Kind: OwnDoubleRelease, Pos: s.deferPos, AcqPos: s.acq, RelPos: s.rel, Desc: s.desc, Name: v.Name()})
		}
	}
}

// --- Transfer steps --------------------------------------------------------

// trackedVar resolves e to a tracked variable's key, or nil.
func (u *ownUnit) trackedVar(st ownState, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := u.eng.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, tracked := st[v]; !tracked {
		return nil
	}
	return v
}

// isAcquire reports whether call produces an owned value, via the
// configured seeds or a fixpointed constructor summary.
func (u *ownUnit) isAcquire(call *ast.CallExpr) (string, bool) {
	if desc, ok := u.eng.cfg.Acquire(call); ok {
		return desc, true
	}
	if fn, ok := CalleeObject(u.eng.pass.TypesInfo, call).(*types.Func); ok {
		if desc := u.eng.returnsOwned[fn]; desc != "" {
			return desc, true
		}
	}
	return "", false
}

// releasedVars lists the tracked variables call releases: the
// configured release form plus arguments consumed by a callee whose
// disposition says it takes them.
func (u *ownUnit) releasedVars(st ownState, call *ast.CallExpr) []*types.Var {
	var out []*types.Var
	if rel, ok := u.eng.cfg.Release(call); ok {
		if v := u.trackedVar(st, rel); v != nil {
			out = append(out, v)
		}
	}
	if fn, ok := CalleeObject(u.eng.pass.TypesInfo, call).(*types.Func); ok {
		if takes := u.eng.takes[fn]; takes != nil {
			for i, arg := range u.formalArgs(call, fn) {
				if i < len(takes) && takes[i] && arg != nil {
					if v := u.trackedVar(st, arg); v != nil {
						out = append(out, v)
					}
				}
			}
		}
	}
	return out
}

// formalArgs aligns call arguments to fn's formals, receiver first
// for methods (matching the disposition indexing).
func (u *ownUnit) formalArgs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	var out []ast.Expr
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	return append(out, call.Args...)
}

// releaseArgIdents collects the identifiers that appear as released
// operands anywhere in n, excluded from the use-after scan (they
// produce double-release findings instead).
func (u *ownUnit) releaseArgIdents(st ownState, n ast.Node) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	ShallowInspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		mark := func(e ast.Expr) {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				out[id] = true
			}
		}
		if rel, ok := u.eng.cfg.Release(call); ok {
			mark(rel)
		}
		if fn, ok := CalleeObject(u.eng.pass.TypesInfo, call).(*types.Func); ok {
			if takes := u.eng.takes[fn]; takes != nil {
				for i, arg := range u.formalArgs(call, fn) {
					if i < len(takes) && takes[i] && arg != nil {
						mark(arg)
					}
				}
			}
		}
		return true
	})
	return out
}

// step applies one block node to st, emitting findings when emit is
// non-nil. It must be deterministic and depend only on (st, n).
func (u *ownUnit) step(st ownState, n ast.Node, emit emitFn) {
	switch s := n.(type) {
	case *ast.DeferStmt:
		u.useScan(st, n, emit, u.releaseArgIdents(st, n), nil)
		u.armDefer(st, s, emit)
		return
	case *ast.GoStmt:
		u.useScan(st, n, emit, nil, nil)
		for _, arg := range s.Call.Args {
			if v := u.trackedVar(st, arg); v != nil {
				u.escape(st, v)
			}
		}
		u.escapeCaptures(st, s.Call)
		u.escapeComposites(st, s.Call)
		return
	case *ast.ReturnStmt:
		rels := u.releaseArgIdents(st, n)
		u.useScan(st, n, emit, rels, nil)
		u.applyCalls(st, n, emit)
		u.escapeCaptures(st, n)
		u.escapeComposites(st, n)
		u.stepReturn(st, s)
		return
	case *ast.SendStmt:
		rels := u.releaseArgIdents(st, n)
		u.useScan(st, n, emit, rels, nil)
		u.applyCalls(st, n, emit)
		u.escapeCaptures(st, n)
		u.escapeComposites(st, n)
		if v := u.trackedVar(st, s.Value); v != nil {
			u.escape(st, v)
		}
		return
	case *ast.AssignStmt:
		u.stepAssign(st, s, emit)
		return
	case *ast.DeclStmt:
		u.stepDecl(st, s, emit)
		return
	case *ast.ExprStmt:
		rels := u.releaseArgIdents(st, n)
		u.useScan(st, n, emit, rels, nil)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if desc, ok := u.isAcquire(call); ok && emit != nil {
				emit(OwnershipFinding{Kind: OwnDiscard, Pos: s.Pos(), AcqPos: call.Pos(), Desc: desc})
			}
		}
		u.applyCalls(st, n, emit)
		u.escapeCaptures(st, n)
		u.escapeComposites(st, n)
		return
	}
	// Conditions, switch tags, range headers, inc/dec: plain uses with
	// possible releases and captures nested in call arguments.
	rels := u.releaseArgIdents(st, n)
	u.useScan(st, n, emit, rels, nil)
	u.applyCalls(st, n, emit)
	u.escapeCaptures(st, n)
	u.escapeComposites(st, n)
}

// useScan reports uses of released values. excluded idents are
// release operands; defs are assignment targets.
func (u *ownUnit) useScan(st ownState, n ast.Node, emit emitFn, excluded, defs map[*ast.Ident]bool) {
	if emit == nil {
		return
	}
	info := u.eng.pass.TypesInfo
	ShallowInspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		if excluded[id] || defs[id] {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if s, tracked := st[v]; tracked && s.bits == ownReleased {
			emit(OwnershipFinding{Kind: OwnUseAfterRelease, Pos: id.Pos(), AcqPos: s.acq, RelPos: s.rel, Desc: s.desc, Name: v.Name()})
		}
		return true
	})
}

// applyCalls releases the operands of release calls in n, reporting
// double releases.
func (u *ownUnit) applyCalls(st ownState, n ast.Node, emit emitFn) {
	ShallowInspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, v := range u.releasedVars(st, call) {
			u.release(st, v, call.Pos(), emit)
		}
		return true
	})
}

func (u *ownUnit) release(st ownState, v *types.Var, pos token.Pos, emit emitFn) {
	s := st[v]
	if s.bits&ownEscaped != 0 {
		return
	}
	if emit != nil && s.bits == ownReleased {
		emit(OwnershipFinding{Kind: OwnDoubleRelease, Pos: pos, AcqPos: s.acq, RelPos: s.rel, Desc: s.desc, Name: v.Name()})
	}
	s.bits = s.bits&^ownLive | ownReleased
	s.rel = pos
	st[v] = s
}

func (u *ownUnit) escape(st ownState, v *types.Var) {
	s := st[v]
	s.bits |= ownEscaped
	st[v] = s
}

// escapeRet escapes v through a return statement: marked so the
// disposition summary still treats a returned parameter as borrowed.
func (u *ownUnit) escapeRet(st ownState, v *types.Var) {
	s := st[v]
	s.bits |= ownEscaped
	s.retEsc = true
	st[v] = s
}

// escapeComposites escapes tracked variables placed into composite
// literals anywhere in n: the aggregate now holds the reference, and
// wherever the aggregate goes the obligation follows.
func (u *ownUnit) escapeComposites(st ownState, n ast.Node) {
	info := u.eng.pass.TypesInfo
	ShallowInspect(n, func(m ast.Node) bool {
		cl, ok := m.(*ast.CompositeLit)
		if !ok {
			return true
		}
		ast.Inspect(cl, func(b ast.Node) bool {
			if id, ok := b.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					if _, tracked := st[v]; tracked {
						u.escape(st, v)
					}
				}
			}
			return true
		})
		return false
	})
}

// escapeCaptures escapes tracked variables referenced inside any
// function literal in n: the literal may outlive this frame, so the
// obligation leaves with it.
func (u *ownUnit) escapeCaptures(st ownState, n ast.Node) {
	info := u.eng.pass.TypesInfo
	ShallowInspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(b ast.Node) bool {
			if id, ok := b.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					if _, tracked := st[v]; tracked {
						u.escape(st, v)
					}
				}
			}
			return true
		})
		return true
	})
}

// armDefer handles `defer release(v)` — directly, through a consuming
// callee, or wrapped in a literal whose body releases v.
func (u *ownUnit) armDefer(st ownState, ds *ast.DeferStmt, emit emitFn) {
	arm := func(v *types.Var) {
		s := st[v]
		if emit != nil && s.deferred {
			emit(OwnershipFinding{Kind: OwnDoubleRelease, Pos: ds.Pos(), AcqPos: s.acq, RelPos: s.deferPos, Desc: s.desc, Name: v.Name()})
		}
		s.deferred = true
		s.deferPos = ds.Pos()
		st[v] = s
	}
	for _, v := range u.releasedVars(st, ds.Call) {
		arm(v)
	}
	if lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
		// defer func() { PutBuf(b) }(): arm what the body releases;
		// everything else the literal captures escapes as usual.
		armed := make(map[*types.Var]bool)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, v := range u.releasedVars(st, call) {
					armed[v] = true
					arm(v)
				}
			}
			return true
		})
		info := u.eng.pass.TypesInfo
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && !armed[v] {
					if _, tracked := st[v]; tracked {
						u.escape(st, v)
					}
				}
			}
			return true
		})
	}
}

// stepReturn escapes returned values to the caller and records
// constructor candidates: the unit returns an owned first result iff
// every return's first result is a live tracked value, a direct
// acquisition, or nil.
func (u *ownUnit) stepReturn(st ownState, ret *ast.ReturnStmt) {
	info := u.eng.pass.TypesInfo
	if len(ret.Results) == 0 {
		// Naked return: named results carry their current values out.
		if u.recording && len(u.resultVars) > 0 {
			u.noteOwnedResult(st, u.resultVars[0])
		}
		for _, rv := range u.resultVars {
			if _, tracked := st[rv]; tracked {
				u.escapeRet(st, rv)
			}
		}
		return
	}
	if u.recording {
		r0 := ast.Unparen(ret.Results[0])
		switch {
		case isNilExpr(info, r0):
			// Vacuously owned: error-path `return nil, err`.
		default:
			if v := u.trackedVar(st, r0); v != nil {
				u.noteOwnedResult(st, v)
			} else if call, ok := r0.(*ast.CallExpr); ok {
				if desc, ok := u.isAcquire(call); ok {
					u.retOwnedN++
					if u.retDesc == "" {
						u.retDesc = desc
					}
				} else {
					u.retAllOwned = false
				}
			} else {
				u.retAllOwned = false
			}
		}
	}
	for _, r := range ret.Results {
		if v := u.trackedVar(st, r); v != nil {
			u.escapeRet(st, v)
		}
	}
}

func (u *ownUnit) noteOwnedResult(st ownState, v *types.Var) {
	s, tracked := st[v]
	if tracked && s.bits&ownLive != 0 && !s.param {
		u.retOwnedN++
		if u.retDesc == "" {
			u.retDesc = s.desc
		}
	} else if !tracked || s.param {
		u.retAllOwned = false
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// stepAssign binds acquisitions, escapes aliases and stores, and
// reports live values overwritten by reassignment.
func (u *ownUnit) stepAssign(st ownState, as *ast.AssignStmt, emit emitFn) {
	info := u.eng.pass.TypesInfo
	defs := make(map[*ast.Ident]bool)
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			defs[id] = true
		}
	}
	rels := u.releaseArgIdents(st, as)
	u.useScan(st, as, emit, rels, defs)
	u.applyCalls(st, as, emit)
	u.escapeCaptures(st, as)
	u.escapeComposites(st, as)

	// Escapes through the assignment itself.
	for i, lhs := range as.Lhs {
		if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
			continue
		}
		// Store into a field, element, or dereference: ownership moves
		// into the containing object — give up tracking, no finding.
		if i < len(as.Rhs) {
			if v := u.trackedVar(st, as.Rhs[i]); v != nil {
				u.escape(st, v)
			}
		}
	}
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			if v := u.trackedVar(st, rhs); v != nil {
				if _, plain := ast.Unparen(as.Lhs[i]).(*ast.Ident); plain {
					// Alias: two names now hold the obligation; track
					// neither rather than report wrongly.
					u.escape(st, v)
				}
			}
		}
	}

	// Acquisitions: v := acquire() — the single-call form covers
	// `b, err := newFrame(...)` (owned value is the first result).
	lhsVar := func(lhs ast.Expr) *types.Var {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if d, ok := info.Defs[id].(*types.Var); ok {
			return d
		}
		if use, ok := info.Uses[id].(*types.Var); ok {
			return use
		}
		return nil
	}
	bind := func(lhs ast.Expr, call *ast.CallExpr, desc string, errVar *types.Var) {
		v := lhsVar(lhs)
		if v == nil {
			return
		}
		u.reassignCheck(st, v, as, emit)
		st[v] = vstate{bits: ownLive, acq: call.Pos(), desc: desc, errVar: errVar}
	}
	// errSibling finds the error-typed companion of a multi-result
	// acquisition (`b, err := newFrame(...)`).
	errSibling := func() *types.Var {
		for i := len(as.Lhs) - 1; i > 0; i-- {
			if v := lhsVar(as.Lhs[i]); v != nil && isErrorType(v.Type()) {
				return v
			}
		}
		return nil
	}
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if desc, ok := u.isAcquire(call); ok {
				bind(as.Lhs[0], call, desc, errSibling())
			}
		}
	} else {
		for i, rhs := range as.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if desc, ok := u.isAcquire(call); ok && i < len(as.Lhs) {
					bind(as.Lhs[i], call, desc, nil)
				}
			}
		}
	}

	// Plain reassignment of a tracked variable to a non-acquired
	// value drops the only reference.
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			continue
		}
		if s, tracked := st[v]; tracked && as.Tok != token.DEFINE {
			// Skip targets just bound by an acquisition above.
			if s.acq.IsValid() && s.acq >= as.Pos() && s.acq < as.End() {
				continue
			}
			u.reassignCheck(st, v, as, emit)
			delete(st, v)
		}
	}
}

func (u *ownUnit) reassignCheck(st ownState, v *types.Var, at ast.Node, emit emitFn) {
	s, tracked := st[v]
	if !tracked {
		return
	}
	if emit != nil && !s.param && s.bits&ownLive != 0 && s.bits&ownEscaped == 0 && !s.deferred {
		emit(OwnershipFinding{Kind: OwnReassign, Pos: at.Pos(), AcqPos: s.acq, Desc: s.desc, Name: v.Name()})
	}
	delete(st, v)
}

// stepDecl handles `var v = acquire()`.
func (u *ownUnit) stepDecl(st ownState, ds *ast.DeclStmt, emit emitFn) {
	u.useScan(st, ds, emit, u.releaseArgIdents(st, ds), nil)
	u.applyCalls(st, ds, emit)
	u.escapeCaptures(st, ds)
	u.escapeComposites(st, ds)
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	info := u.eng.pass.TypesInfo
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 {
			continue
		}
		call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
		if !ok {
			continue
		}
		desc, ok := u.isAcquire(call)
		if !ok || len(vs.Names) == 0 {
			continue
		}
		if v, ok := info.Defs[vs.Names[0]].(*types.Var); ok {
			st[v] = vstate{bits: ownLive, acq: call.Pos(), desc: desc}
		}
	}
}
