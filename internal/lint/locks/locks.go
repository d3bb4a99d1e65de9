// Package locks enforces the repo's mutex conventions: which fields a
// mutex guards, where the journal appends sit relative to the record
// lock, and the order locks are taken in. All three rules read one
// model of the package's mutexes and one lexical event list per
// function body, in which an explicit Unlock ends a critical section
// and a deferred one does not.
//
// Guards. On every struct that carries a mutex:
//
//   - a field named "mu" (sync.Mutex or sync.RWMutex) guards every
//     field declared after it, except other mutexes and types that
//     synchronise themselves (sync.Map, sync.WaitGroup, sync/atomic
//     values, channels);
//   - a field named "<prefix>Mu" guards exactly the fields whose
//     names start with <prefix> (e.g. Server.randMu guards rand);
//   - a mutex with no matching fields (wal.WAL.compactMu) guards a
//     critical section, not data, and imposes nothing.
//
// A guarded field may only be accessed in a function that (a) is
// named *Locked — the caller owns the critical section, as with the
// clientRecord helpers — (b) locks the corresponding mutex on the
// same receiver somewhere in the same function or an enclosing one,
// or (c) constructed the value locally via a new*/New* constructor or
// composite literal, i.e. the value is not yet published.
//
// Journal appends. internal/auth's journal contract makes JournalBurn,
// JournalRemap and JournalCounter — the per-record mutations — run
// lexically inside the record's critical section (after a .mu.Lock()
// with no intervening explicit .mu.Unlock()), or from a *Locked
// function whose caller holds the lock. JournalEnroll is the
// record-lifecycle event journaled outside any record lock by design
// and is exempt.
//
// Order. Lock acquisitions — including those reached through calls —
// must follow the declared hierarchy
//
//	storeShard.mu  <  clientRecord.mu  <  WAL.closedMu
//
// (shard map lock before per-record lock before the WAL's close
// guard; DESIGN.md §7 is the written contract). Two bug shapes are
// reported:
//
//   - inversion: acquiring a class that sits *before* one already
//     held — directly, or by calling a function whose transitive
//     acquisition set (propagated over the package call graph)
//     contains such a class. Two goroutines running the two orders
//     concurrently deadlock.
//   - re-entry: acquiring a class already held. Same lock value is a
//     guaranteed self-deadlock (sync.Mutex does not re-enter);
//     another instance of the same class (two records, two shards) is
//     unordered within the hierarchy and deadlocks against the
//     opposite interleaving.
//
// Calls are followed through the package call graph: direct calls,
// method calls through the static type, and interface calls
// devirtualised to in-package implementations. `go` edges are not
// followed — a spawned goroutine runs on its own stack, so its
// acquisitions do not nest inside the caller's. The durability funnel
// sits behind a package boundary the graph cannot see and is pinned
// by name instead: the journal methods and wal.WAL's
// Append/Compact/Close all acquire WAL.closedMu.
//
// Packages may extend the hierarchy for their own locks with a
// directive anywhere in the package:
//
//	//lint:lockorder first.mu < second.mu < third.mu
//
// Classes are named TypeName.fieldName; classes not in the hierarchy
// are unordered and never reported.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the locks entry point.
var Analyzer = &lint.Analyzer{
	Name: "locks",
	Doc:  "mu-guarded fields accessed only under their mutex, record journal appends inside the critical section, and lock acquisitions (direct and via calls) in the declared order storeShard.mu < clientRecord.mu < WAL.closedMu with no re-entry",
	Run:  run,
}

// defaultHierarchy is the repo's declared acquisition order, lowest
// (outermost) first. DESIGN.md §7 is the prose version; keep them in
// step.
var defaultHierarchy = []string{"storeShard.mu", "clientRecord.mu", "WAL.closedMu"}

// journalMethods are the durability funnel's entry points, carried by
// auth.Journal and wal.WAL alike; all of them acquire WAL.closedMu
// behind the package boundary. True marks the per-record mutations,
// which must also sit inside the record's critical section.
var journalMethods = map[string]bool{
	"JournalEnroll":  false,
	"JournalBurn":    true,
	"JournalRemap":   true,
	"JournalCounter": true,
}

// boundaryAcquires pins the other lock classes acquired behind the
// package boundary. Keyed by receiver type name, then method name.
var boundaryAcquires = map[string]map[string]string{
	"WAL": {
		"Append": "WAL.closedMu", "AppendRecord": "WAL.closedMu", "AppendFrame": "WAL.closedMu",
		"Compact": "WAL.closedMu", "Close": "WAL.closedMu",
		"Subscribe": "WAL.subMu",
	},
	"Subscription": {
		"Close": "WAL.subMu",
	},
}

func run(pass *lint.Pass) error {
	levels := hierarchy(pass.Files)
	c := &checker{
		pass:   pass,
		guards: make(map[*types.Struct]map[int]string),
		events: make(map[*lint.FuncScope][]event),
		sites:  make(map[*ast.CallExpr]*lint.CallSite),
		levels: levels,
		order:  orderString(levels),
	}
	for _, node := range pass.CallGraph().All() {
		for i := range node.Sites {
			c.sites[node.Sites[i].Call] = &node.Sites[i]
		}
	}
	c.trans = c.transitiveAcquires()
	for _, scope := range lint.FuncScopes(pass.Files) {
		c.checkGuards(scope)
		c.checkOrder(scope)
	}
	return nil
}

// checker carries the per-package state through every scope.
type checker struct {
	pass *lint.Pass
	// guards caches the field→mutex map per struct type.
	guards map[*types.Struct]map[int]string
	// events caches each scope's lexical event list; a literal's
	// check reads its enclosing scopes' lists too.
	events map[*lint.FuncScope][]event
	// sites indexes the call graph's resolved sites by expression.
	sites  map[*ast.CallExpr]*lint.CallSite
	levels map[string]int
	order  string
	// trans holds each declared function's transitive acquisitions.
	trans map[*types.Func]map[string]bool
}

// --- Mutex model -------------------------------------------------------

// mutexOp is one Lock/RLock/Unlock/RUnlock on a struct's mutex field.
type mutexOp struct {
	lock  bool   // Lock or RLock
	field string // the mutex field's name
	// class is TypeName.field, naming the struct that declares the
	// field ("" when no type on the selection path is named).
	class string
	// key is the instance identity: the selector chain's root object
	// plus the field name.
	key string
}

// resolveMutexOp resolves call as a mutex operation on a struct field
// — rec.mu.Lock() or s.shards[i].closedMu.Unlock(). A bare local
// mutex guards no fields and belongs to no class, so it does not
// resolve.
func resolveMutexOp(info *types.Info, call *ast.CallExpr) (mutexOp, bool) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	var op mutexOp
	switch fun.Sel.Name {
	case "Lock", "RLock":
		op.lock = true
	case "Unlock", "RUnlock":
	default:
		return mutexOp{}, false
	}
	sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal || !isMutex(selection.Obj().Type()) {
		return mutexOp{}, false
	}
	root := rootObject(info, sel.X)
	if root == nil {
		return mutexOp{}, false
	}
	op.field = sel.Sel.Name
	op.key = lockKey(root, op.field)
	if _, _, owner := declaringStruct(selection); owner != "" {
		op.class = owner + "." + op.field
	}
	return op, true
}

func lockKey(obj types.Object, mutexName string) string {
	return fmt.Sprintf("%s@%d.%s", obj.Id(), obj.Pos(), mutexName)
}

// rootObject resolves the leftmost identifier of a selector chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	id := lint.RootIdent(e)
	if id == nil {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaringStruct walks a field selection's index path (embedded
// chains included) to the struct that declares the field. It returns
// that struct, the field's index in it, and the name of the nearest
// named type on the way ("" when none is named).
func declaringStruct(sel *types.Selection) (st *types.Struct, index int, owner string) {
	t := sel.Recv()
	path := sel.Index()
	for depth, i := range path {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			owner = named.Obj().Name()
		}
		s, ok := t.Underlying().(*types.Struct)
		if !ok {
			return nil, 0, ""
		}
		if depth == len(path)-1 {
			return s, i, owner
		}
		t = s.Field(i).Type()
	}
	return nil, 0, ""
}

// isMutex reports whether t is sync.Mutex, sync.RWMutex, or a pointer
// to one.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// selfSynced reports whether t carries its own synchronisation and
// needs no external lock: the sync containers, atomics, and channels.
func selfSynced(t types.Type) bool {
	if _, ok := t.(*types.Chan); ok {
		return true
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				return true
			}
		}
	}
	return false
}

// guardsOf returns the guard map for st: field index → name of the
// mutex field guarding it.
func (c *checker) guardsOf(st *types.Struct) map[int]string {
	if m, ok := c.guards[st]; ok {
		return m
	}
	m := make(map[int]string)
	c.guards[st] = m

	type mutexField struct {
		index int
		name  string
	}
	var muxes []mutexField
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutex(f.Type()) {
			muxes = append(muxes, mutexField{index: i, name: f.Name()})
		}
	}
	// Prefix-named mutexes claim their fields first.
	claimed := make(map[int]bool)
	for _, mx := range muxes {
		prefix, ok := strings.CutSuffix(mx.name, "Mu")
		if !ok || prefix == "" {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if i == mx.index || isMutex(f.Type()) || selfSynced(f.Type()) {
				continue
			}
			if strings.HasPrefix(f.Name(), prefix) {
				m[i] = mx.name
				claimed[i] = true
			}
		}
	}
	// A bare "mu" guards everything declared below it that is still
	// unclaimed.
	for _, mx := range muxes {
		if mx.name != "mu" {
			continue
		}
		for i := mx.index + 1; i < st.NumFields(); i++ {
			f := st.Field(i)
			if claimed[i] || isMutex(f.Type()) || selfSynced(f.Type()) {
				continue
			}
			m[i] = mx.name
		}
	}
	return m
}

// --- Lexical events ----------------------------------------------------

// event is one call in a scope, in lexical order: a mutex operation
// when op is set.
type event struct {
	call     *ast.CallExpr
	op       *mutexOp
	deferred bool // runs at function exit, never ending a section
}

// eventsOf returns the scope's calls in lexical order, without
// descending into nested literals (each literal is its own scope).
func (c *checker) eventsOf(scope *lint.FuncScope) []event {
	if evs, ok := c.events[scope]; ok {
		return evs
	}
	var evs []event
	deferred := make(map[token.Pos]bool)
	scope.InspectShallow(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call.Pos()] = true
		case *ast.CallExpr:
			ev := event{call: n, deferred: deferred[n.Pos()]}
			if op, ok := resolveMutexOp(c.pass.TypesInfo, n); ok {
				ev.op = &op
			}
			evs = append(evs, ev)
		}
		return true
	})
	c.events[scope] = evs
	return evs
}

// lockedName reports whether the scope (or, for a literal, any
// enclosing declaration) is named *Locked.
func lockedName(scope *lint.FuncScope) bool {
	for s := scope; s != nil; s = s.Parent {
		if strings.HasSuffix(s.Name, "Locked") {
			return true
		}
	}
	return false
}

// --- Guards and journal appends ----------------------------------------

// checkGuards verifies every guarded-field access and record journal
// append in one function body.
func (c *checker) checkGuards(scope *lint.FuncScope) {
	if lockedName(scope) {
		return // the caller owns the critical section
	}
	pass, info := c.pass, c.pass.TypesInfo

	// The locks this scope takes count as held for every access in it.
	// So do those of its enclosing functions: a function literal may
	// rely on a lock its enclosing function holds (the common
	// defer-unlock and with-lock-held callback shapes).
	locked := make(map[string]bool)
	for s := scope; s != nil; s = s.Parent {
		for _, ev := range c.eventsOf(s) {
			if ev.op != nil && ev.op.lock {
				locked[ev.op.key] = true
			}
		}
	}
	fresh := freshLocals(info, scope)

	scope.InspectShallow(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := info.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		owner, index, _ := declaringStruct(selection)
		if owner == nil {
			return true
		}
		muName := c.guardsOf(owner)[index]
		if muName == "" {
			return true
		}
		// Chains rooted in call results etc. have no root: out of scope.
		root := rootObject(info, sel.X)
		if root == nil || fresh[root] || locked[lockKey(root, muName)] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"field %s.%s is guarded by %s; access it under %s.%s.Lock, from a *Locked function, or on a freshly constructed record",
			owner.Field(index).Pkg().Name()+"."+structName(selection), sel.Sel.Name, muName, root.Name(), muName)
		return true
	})

	events := c.eventsOf(scope)
	for _, ev := range events {
		sel, ok := ev.call.Fun.(*ast.SelectorExpr)
		if !ok || !journalMethods[sel.Sel.Name] {
			continue
		}
		if !insideCriticalSection(events, ev.call.Pos()) {
			pass.Reportf(ev.call.Pos(),
				"%s must be called inside the record critical section (after .mu.Lock with no intervening .mu.Unlock) or from a *Locked function",
				sel.Sel.Name)
		}
	}
}

// insideCriticalSection reports whether pos has a "mu" lock before it
// with no explicit unlock of the same mutex between.
func insideCriticalSection(events []event, pos token.Pos) bool {
	var last *mutexOp
	for _, ev := range events {
		if ev.call.Pos() >= pos {
			break
		}
		if ev.op == nil || ev.op.field != "mu" {
			continue
		}
		switch {
		case ev.op.lock:
			last = ev.op
		case !ev.deferred && last != nil && ev.op.key == last.key:
			last = nil
		}
	}
	return last != nil
}

// structName renders the receiver struct's type name for diagnostics.
func structName(sel *types.Selection) string {
	t := sel.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if p, ok := t.(*types.Pointer); ok {
		if named, ok := p.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return t.String()
}

// freshLocals finds local variables initialised from a constructor
// (new*/New* call) or composite literal in this scope: values not yet
// published, whose guarded fields may be set lock-free.
func freshLocals(info *types.Info, scope *lint.FuncScope) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if isFreshExpr(rhs) {
			fresh[obj] = true
		}
	}
	scope.InspectShallow(func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					mark(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					mark(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e constructs a brand-new value: a
// composite literal, &literal, or a call to a new*/New* constructor.
func isFreshExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := x.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		var name string
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		return strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New")
	}
	return false
}

// --- Acquisition order -------------------------------------------------

// hierarchy builds the class→level map: the default chain, extended
// by every //lint:lockorder directive in the package (new classes
// append after the defaults, keeping each directive chain's relative
// order).
func hierarchy(files []*ast.File) map[string]int {
	order := append([]string(nil), defaultHierarchy...)
	levels := make(map[string]int)
	for i, cls := range order {
		levels[cls] = i
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
				if !strings.HasPrefix(text, "lint:lockorder") {
					continue
				}
				for _, cls := range strings.Split(strings.TrimPrefix(text, "lint:lockorder"), "<") {
					cls = strings.TrimSpace(cls)
					if _, known := levels[cls]; cls != "" && !known {
						levels[cls] = len(order)
						order = append(order, cls)
					}
				}
			}
		}
	}
	return levels
}

// orderString renders the hierarchy for diagnostics, level order.
func orderString(levels map[string]int) string {
	out := make([]string, len(levels))
	for cls, lv := range levels {
		out[lv] = cls
	}
	return strings.Join(out, " < ")
}

// transitiveAcquires computes, for every function declared in the
// package, the set of hierarchy classes it may acquire — locally or
// through any chain of resolvable calls. Go edges are excluded (a
// goroutine's acquisitions happen on its own stack); defer edges are
// included (deferred calls run on the caller's stack).
func (c *checker) transitiveAcquires() map[*types.Func]map[string]bool {
	graph := c.pass.CallGraph()
	acq := make(map[*types.Func]map[string]bool, len(graph.All()))
	for _, node := range graph.All() {
		set := make(map[string]bool)
		// Local acquisitions, including nested literals (a literal the
		// function builds may run on its stack) but not go-launched
		// bodies.
		c.collectLocalAcquires(node.Decl.Body, set)
		acq[node.Func] = set
	}
	for changed := true; changed; {
		changed = false
		for _, node := range graph.All() {
			set := acq[node.Func]
			for _, site := range node.Sites {
				if site.Go {
					continue
				}
				for _, cls := range calleeClasses(site, acq) {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// collectLocalAcquires adds every hierarchy-class Lock/RLock under n
// to set, skipping go-launched literal bodies.
func (c *checker) collectLocalAcquires(n ast.Node, set map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.GoStmt:
			if _, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				// The goroutine body acquires on its own stack; only
				// its arguments are evaluated here.
				for _, a := range x.Call.Args {
					c.collectLocalAcquires(a, set)
				}
				return false
			}
		case *ast.CallExpr:
			if op, ok := resolveMutexOp(c.pass.TypesInfo, x); ok && op.lock {
				if _, ranked := c.levels[op.class]; ranked {
					set[op.class] = true
				}
			}
		}
		return true
	})
}

// calleeClasses returns the classes a call site may acquire: the
// union of its in-package targets' sets plus any pinned boundary
// class.
func calleeClasses(site lint.CallSite, acq map[*types.Func]map[string]bool) []string {
	var out []string
	for _, t := range site.Targets {
		for cls := range acq[t] {
			out = append(out, cls)
		}
	}
	if cls := boundaryClass(site.Callee); cls != "" {
		out = append(out, cls)
	}
	return out
}

// boundaryClass resolves a callee against the pinned cross-package
// acquisitions.
func boundaryClass(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	recvName := named.Obj().Name()
	if _, journal := journalMethods[fn.Name()]; journal && (recvName == "Journal" || recvName == "WAL") {
		return "WAL.closedMu"
	}
	return boundaryAcquires[recvName][fn.Name()]
}

// checkOrder replays one function body's events against the
// hierarchy. Each scope (declaration or literal) starts with an empty
// held set: literals run on unknown stacks, so only locks taken in
// the same body count as held — an under-approximation that never
// reports a lock the body did not itself take.
func (c *checker) checkOrder(scope *lint.FuncScope) {
	type held struct {
		class string
		key   string
	}
	var stack []held
	for _, ev := range c.eventsOf(scope) {
		pos := ev.call.Pos()
		// A mutex of an unnamed struct has no class to rank; its
		// operations pass as plain calls into package sync.
		if op := ev.op; op != nil && op.class != "" {
			if !op.lock {
				if ev.deferred {
					continue // runs at exit; never ends the lexical section
				}
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].key == op.key || stack[i].class == op.class {
						stack = append(stack[:i], stack[i+1:]...)
						break
					}
				}
				continue
			}
			lv, ranked := c.levels[op.class]
			if !ranked {
				continue
			}
			for _, h := range stack {
				switch {
				case h.class == op.class:
					c.pass.Reportf(pos,
						"acquires %s while already holding %s (lock re-entry: same lock self-deadlocks, sibling instances are unordered)",
						op.class, h.class)
				case c.levels[h.class] > lv:
					c.pass.Reportf(pos,
						"acquires %s while holding %s, against the declared lock order %s",
						op.class, h.class, c.order)
				}
			}
			stack = append(stack, held{class: op.class, key: op.key})
			continue
		}
		// Call event: what the callee may acquire must order above
		// everything held here.
		site := c.sites[ev.call]
		if site == nil || len(stack) == 0 || ev.deferred || site.Go {
			continue
		}
		calleeName := site.Callee.Name()
		for _, cls := range calleeClasses(*site, c.trans) {
			lv, ranked := c.levels[cls]
			if !ranked {
				continue
			}
			for _, h := range stack {
				switch {
				case cls == h.class:
					c.pass.Reportf(pos,
						"call to %s may acquire %s, which is already held (lock re-entry through the call graph)",
						calleeName, cls)
				case c.levels[h.class] > lv:
					c.pass.Reportf(pos,
						"call to %s may acquire %s while %s is held, against the declared lock order %s",
						calleeName, cls, h.class, c.order)
				}
			}
		}
	}
}
