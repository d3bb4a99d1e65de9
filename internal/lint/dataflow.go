package lint

// Interprocedural taint dataflow. The engine computes, per package,
// which values carry secret material (raw error maps, derived keys,
// unburned CRP pairs, WAL payloads) and which formal parameters of
// each function flow into a disclosure sink (log/fmt output, error
// payloads, file writes outside the WAL, cache-entry stores). The
// secretflow analyzer turns the resulting facts into diagnostics; the
// engine itself is analyzer-agnostic and cached on the Package like
// the call graph, so one fixed point serves every analyzer of a
// package.
//
// The analysis is flow-sensitive inside a function: each basic block
// of the Pass.CFG is solved with its own variable→taint state, a
// plain-identifier assignment strongly updates (reassigning to clean
// data kills taint, and a sanitize on one branch no longer clears the
// sibling branch), and sinks are judged under the state of the block
// they sit in. Stores through fields and the bodies of function
// literals merge weakly. Across functions it is summary-based: each
// declared function gets a FuncFlow summary — which
// formals reach each result, which formals reach a sink, and whether
// a result is secret regardless of inputs — and the package iterates
// summaries to a fixed point over Pass.CallGraph()'s edges. Bits are
// monotone, so the iteration terminates.
//
// Secrecy has three roots:
//
//   - Built-in seeds: named types and struct fields of this repo that
//     hold PUF secrets by construction (errormap.Plane/Map,
//     mapkey.Key, wal.Record payload fields, auth.SessionKey
//     results). Type-based seeds travel across package boundaries for
//     free: any expression whose type is a seeded named type is
//     secret in every package.
//
//   - //lint:secret directives on a type, struct field, var, or func
//     declaration (results). Directive seeds are package-local — the
//     vettool driver sees imported packages only as export data, so a
//     directive in package A is invisible while checking package B;
//     cross-package secrets belong in the built-in seed list.
//
//   - Summaries: a call to a function whose summary says "result is
//     secret" or "result depends on formal i" propagates taint
//     through the call.
//
// Sanitizers terminate taint: cryptographic hashing/MACs (sha256,
// sha512, hmac), the ECC key-strengthening step, len/cap-style
// builtins, and any function carrying //lint:sanitizes <reason>.
//
// Everything is an under-approximation in the direction that suits
// linting: an unresolved call propagates argument taint to its result
// (so derived values stay tainted) but produces no sink facts, and
// channel receives drop taint. Missing edges cost findings, never
// false ones — except for the deliberate over-approximation that a
// field read from a tainted struct is tainted.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Taint is a bitset of secrecy origins: bit i (i < 62) means "depends
// on formal parameter i" (receiver counts as formal 0 when present),
// and the AlwaysSecret bit means the value is secret regardless of
// the caller's arguments.
type Taint uint64

// AlwaysSecret marks a value that is secret unconditionally.
const AlwaysSecret Taint = 1 << 63

// maxParams bounds the per-formal bits; functions with more formals
// than this lose precision on the tail (they share the last bit).
const maxParams = 62

// ParamBit returns the taint bit for formal index i.
func ParamBit(i int) Taint {
	if i < 0 {
		return 0
	}
	if i >= maxParams {
		i = maxParams - 1
	}
	return 1 << uint(i)
}

// taintVal is a taint bitset plus a human description of the
// unconditional source, carried so diagnostics can name the secret.
type taintVal struct {
	bits Taint
	src  string
}

func (v taintVal) union(w taintVal) taintVal {
	out := taintVal{bits: v.bits | w.bits, src: v.src}
	if out.src == "" {
		out.src = w.src
	}
	return out
}

// SinkFlow records that formal Param of a function reaches sink Sink
// when the function is called — the conditional half of a summary.
// Chain names the in-package calls between the function and the sink,
// innermost last.
type SinkFlow struct {
	Param int
	Sink  string
	Chain []string
	Pos   token.Pos
}

// Finding is one unconditional secret-to-sink flow: a value that is
// secret in its own right (not via a formal) reaches a sink inside
// this function. The secretflow analyzer reports these.
type Finding struct {
	Pos    token.Pos
	Sink   string
	Chain  []string
	Source string
}

// FuncFlow is one function's dataflow summary.
type FuncFlow struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Params lists the formals, receiver first when present; the slice
	// index is the taint bit index.
	Params []*types.Var
	// Results is the taint of each result: which formals flow to it,
	// and AlwaysSecret when it is secret regardless.
	Results []Taint
	// ResultSrc describes the unconditional source per result ("" when
	// the AlwaysSecret bit is clear).
	ResultSrc []string
	// Sinks are the formal-to-sink flows callers must respect.
	Sinks []SinkFlow
	// Findings are the unconditional flows discovered in the body.
	Findings []Finding
	// Sanitizer marks //lint:sanitizes functions: their results are
	// clean by declaration (the body is still scanned for sinks).
	Sanitizer bool
}

// DirectivePos locates one secrecy directive for diagnostics.
type DirectivePos struct {
	Pos  token.Pos
	Text string
}

// Dataflow is the package-level taint result.
type Dataflow struct {
	// Funcs maps every declared function to its summary.
	Funcs map[*types.Func]*FuncFlow
	order []*FuncFlow
	// UnusedSecret are //lint:secret or //lint:sanitizes comments
	// attached to nothing the engine understands — stale or misplaced
	// armor, reported like unused ignores.
	UnusedSecret []DirectivePos
	// NoReasonSanitizes are //lint:sanitizes directives without the
	// mandatory reason.
	NoReasonSanitizes []DirectivePos

	secrets *secretDecls
	pkgPath string
}

// All returns the function summaries in declaration order.
func (d *Dataflow) All() []*FuncFlow { return d.order }

// Dataflow returns the package's taint analysis, building it on first
// use and sharing it across every analyzer of the package.
func (p *Pass) Dataflow() *Dataflow {
	if p.pkg == nil {
		return buildDataflow(p.Files, p.TypesInfo, p.Pkg, p.PkgPath, p.CallGraph(), p.CFG)
	}
	if p.pkg.df == nil {
		p.pkg.df = buildDataflow(p.pkg.Files, p.pkg.Info, p.pkg.Types, p.pkg.PkgPath, p.CallGraph(), p.CFG)
	}
	return p.pkg.df
}

// --- Secret declarations ---------------------------------------------------

// builtinSecretTypes seeds named types whose every value is secret,
// keyed by "pkgpath.TypeName". These cross package boundaries: the
// key is matched against the type's declaring package, not the
// package under analysis.
var builtinSecretTypes = map[string]string{
	"repro/internal/errormap.Plane":         "raw error map (errormap.Plane)",
	"repro/internal/errormap.Map":           "multi-voltage error map (errormap.Map)",
	"repro/internal/errormap.DistanceField": "error-map distance field (errormap.DistanceField)",
	"repro/internal/mapkey.Key":             "derived map key (mapkey.Key)",
	"repro/internal/crp.Registry":           "burned-pair registry (crp.Registry)",
}

// builtinSecretFields seeds struct fields, keyed by
// "pkgpath.Type.Field".
var builtinSecretFields = map[string]string{
	"repro/internal/wal.Record.MapBytes": "WAL record payload (Record.MapBytes)",
	"repro/internal/wal.Record.Key":      "WAL record payload (Record.Key)",
	"repro/internal/wal.Record.Pairs":    "WAL record payload (Record.Pairs)",
}

// builtinSecretResults seeds functions whose results are secret,
// keyed by "pkgpath.Func".
var builtinSecretResults = map[string]string{
	"repro/internal/auth.SessionKey": "derived session key (auth.SessionKey)",
}

// builtinSanitizerPkgs lists packages whose every function output is
// considered clean: one-way transforms that destroy the secret.
var builtinSanitizerPkgs = map[string]bool{
	"crypto/sha256": true,
	"crypto/sha512": true,
	"crypto/hmac":   true,
	"crypto/subtle": true,
}

// builtinSanitizerFuncs lists individual sanitizing functions and
// methods, keyed by "pkgpath.Func". Besides the cryptographic
// strengthening step, the error-map metadata accessors are here:
// voltage levels, geometry, and aggregate counts are enrollment
// parameters the protocol already exposes, not map contents.
var builtinSanitizerFuncs = map[string]bool{
	"repro/internal/ecc.StrengthenKey":   true,
	"repro/internal/errormap.Voltages":   true,
	"repro/internal/errormap.Geometry":   true,
	"repro/internal/errormap.ErrorCount": true,
}

// secretDecls indexes the secrecy roots visible to one package.
type secretDecls struct {
	types      map[types.Object]string
	fields     map[types.Object]string
	vars       map[types.Object]string
	funcs      map[types.Object]string
	sanitizers map[types.Object]bool
}

const (
	secretDirective    = "lint:secret"
	sanitizesDirective = "lint:sanitizes"
)

// directiveComment returns the trimmed directive text when c is a
// //lint:secret or //lint:sanitizes comment ("" otherwise).
func directiveComment(c *ast.Comment) string {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if text == secretDirective || strings.HasPrefix(text, secretDirective+" ") ||
		text == sanitizesDirective || strings.HasPrefix(text, sanitizesDirective+" ") {
		return text
	}
	return ""
}

// collectSecretDecls parses the package's //lint:secret and
// //lint:sanitizes directives and merges them with the built-in
// seeds.
func collectSecretDecls(files []*ast.File, info *types.Info, df *Dataflow) *secretDecls {
	s := &secretDecls{
		types:      make(map[types.Object]string),
		fields:     make(map[types.Object]string),
		vars:       make(map[types.Object]string),
		funcs:      make(map[types.Object]string),
		sanitizers: make(map[types.Object]bool),
	}
	used := make(map[*ast.Comment]bool)

	// take consumes a directive of the wanted kind from the comment
	// groups and returns the comment, or nil.
	take := func(kind string, groups ...*ast.CommentGroup) *ast.Comment {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				text := directiveComment(c)
				if text == "" || used[c] {
					continue
				}
				if text == kind || strings.HasPrefix(text, kind+" ") {
					used[c] = true
					return c
				}
			}
		}
		return nil
	}

	def := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := def(d.Name)
				if obj == nil {
					continue
				}
				if take(secretDirective, d.Doc) != nil {
					s.funcs[obj] = "result of " + d.Name.Name + " (declared //lint:secret)"
				}
				if c := take(sanitizesDirective, d.Doc); c != nil {
					s.sanitizers[obj] = true
					reason := strings.TrimSpace(strings.TrimPrefix(directiveComment(c), sanitizesDirective))
					if reason == "" {
						df.NoReasonSanitizes = append(df.NoReasonSanitizes, DirectivePos{Pos: c.Pos(), Text: c.Text})
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						groups := []*ast.CommentGroup{sp.Doc, sp.Comment}
						if len(d.Specs) == 1 {
							groups = append(groups, d.Doc)
						}
						if take(secretDirective, groups...) != nil {
							if obj := def(sp.Name); obj != nil {
								s.types[obj] = sp.Name.Name + " value (declared //lint:secret)"
							}
						}
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								if take(secretDirective, field.Doc, field.Comment) == nil {
									continue
								}
								for _, name := range field.Names {
									if obj := def(name); obj != nil {
										s.fields[obj] = "field " + sp.Name.Name + "." + name.Name + " (declared //lint:secret)"
									}
								}
							}
						}
					case *ast.ValueSpec:
						groups := []*ast.CommentGroup{sp.Doc, sp.Comment}
						if len(d.Specs) == 1 {
							groups = append(groups, d.Doc)
						}
						if take(secretDirective, groups...) == nil {
							continue
						}
						for _, name := range sp.Names {
							if obj := def(name); obj != nil {
								s.vars[obj] = name.Name + " (declared //lint:secret)"
							}
						}
					}
				}
			}
		}
	}

	// Whatever directive comment was not consumed above is attached to
	// nothing: report it so stale annotations cannot silently excuse
	// (or fail to protect) anything.
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				if used[c] {
					continue
				}
				if text := directiveComment(c); text != "" {
					df.UnusedSecret = append(df.UnusedSecret, DirectivePos{Pos: c.Pos(), Text: c.Text})
				}
			}
		}
	}
	return s
}

// typeSecret reports whether every value of type t is secret,
// unwrapping pointers and element types of slices, arrays, and maps.
func (s *secretDecls) typeSecret(t types.Type) (string, bool) {
	for depth := 0; t != nil && depth < 8; depth++ {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			if desc, ok := s.types[obj]; ok {
				return desc, true
			}
			if obj.Pkg() != nil {
				if desc, ok := builtinSecretTypes[obj.Pkg().Path()+"."+obj.Name()]; ok {
					return desc, true
				}
			}
			t = u.Underlying()
			if _, again := t.(*types.Named); !again {
				switch t.(type) {
				case *types.Pointer, *types.Slice, *types.Array, *types.Map:
					continue
				}
			}
			return "", false
		default:
			return "", false
		}
	}
	return "", false
}

// fieldSecret reports whether selecting field obj yields a secret.
func (s *secretDecls) fieldSecret(sel *types.Selection) (string, bool) {
	obj := sel.Obj()
	if desc, ok := s.fields[obj]; ok {
		return desc, true
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	recv := sel.Recv()
	if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	owner := namedName(recv)
	if owner == "" {
		return "", false
	}
	key := v.Pkg().Path() + "." + owner + "." + v.Name()
	desc, ok := builtinSecretFields[key]
	return desc, ok
}

// resultSecret reports whether calling obj yields secret results.
func (s *secretDecls) resultSecret(obj types.Object) (string, bool) {
	if desc, ok := s.funcs[obj]; ok {
		return desc, true
	}
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	desc, ok := builtinSecretResults[obj.Pkg().Path()+"."+obj.Name()]
	return desc, ok
}

// sanitizer reports whether obj is a taint-terminating transform.
func (s *secretDecls) sanitizer(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if s.sanitizers[obj] {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	if builtinSanitizerPkgs[obj.Pkg().Path()] {
		return true
	}
	return builtinSanitizerFuncs[obj.Pkg().Path()+"."+obj.Name()]
}

// --- Sinks -----------------------------------------------------------------

// inWALPackage reports whether the package under analysis is the WAL
// itself, whose whole purpose is persisting secret payloads.
func inWALPackage(pkgPath string) bool {
	return pkgPath == "repro/internal/wal" || strings.HasSuffix(pkgPath, "/internal/wal") || pkgPath == "wal"
}

// sinkOf classifies a callee as a disclosure sink. obj may be a
// function, a method, or a func-typed field/variable (logger
// callbacks like Config.Logf).
func sinkOf(pkgPath string, obj types.Object) (string, bool) {
	switch o := obj.(type) {
	case *types.Var:
		// A call through a func-typed value: treat logger-shaped names
		// as log output (the cluster's logf field, injected Logf
		// callbacks). Anything else is opaque.
		if _, isSig := o.Type().Underlying().(*types.Signature); !isSig {
			return "", false
		}
		n := strings.ToLower(o.Name())
		if n == "log" || n == "logf" || n == "logger" || strings.HasSuffix(n, "logf") {
			return "log output (" + o.Name() + ")", true
		}
		return "", false
	case *types.Func:
		pkg := o.Pkg()
		if pkg == nil {
			return "", false
		}
		name := o.Name()
		switch pkg.Path() {
		case "log":
			return "log output (log." + name + ")", true
		case "fmt":
			switch {
			case strings.HasPrefix(name, "Print"), strings.HasPrefix(name, "Fprint"):
				return "fmt output (fmt." + name + ")", true
			case name == "Errorf":
				return "error payload (fmt.Errorf)", true
			}
		case "errors":
			if name == "New" {
				return "error payload (errors.New)", true
			}
		case "os":
			if inWALPackage(pkgPath) {
				return "", false
			}
			if name == "WriteFile" {
				return "file write outside internal/wal (os.WriteFile)", true
			}
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil &&
				namedName(sig.Recv().Type()) == "File" && strings.HasPrefix(name, "Write") {
				return "file write outside internal/wal (os.File." + name + ")", true
			}
		}
		// Cache-entry stores: Put/Set/Add/Store methods on *Cache*
		// receivers must never see secret material (ADR-008).
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := namedName(sig.Recv().Type())
			if strings.Contains(recv, "Cache") {
				switch name {
				case "Put", "Set", "Add", "Store":
					return "cache entry store (" + recv + "." + name + ")", true
				}
			}
		}
	}
	return "", false
}

// --- Engine ----------------------------------------------------------------

// buildDataflow runs the package fixed point.
func buildDataflow(files []*ast.File, info *types.Info, pkg *types.Package, pkgPath string, cg *CallGraph, cfgOf func(*ast.FuncDecl) *CFG) *Dataflow {
	df := &Dataflow{Funcs: make(map[*types.Func]*FuncFlow), pkgPath: pkgPath}
	df.secrets = collectSecretDecls(files, info, df)

	for _, node := range cg.All() {
		ff := &FuncFlow{Fn: node.Func, Decl: node.Decl}
		if sig, ok := node.Func.Type().(*types.Signature); ok {
			if r := sig.Recv(); r != nil {
				ff.Params = append(ff.Params, r)
			}
			for i := 0; i < sig.Params().Len(); i++ {
				ff.Params = append(ff.Params, sig.Params().At(i))
			}
			ff.Results = make([]Taint, sig.Results().Len())
			ff.ResultSrc = make([]string, sig.Results().Len())
		}
		ff.Sanitizer = df.secrets.sanitizer(node.Func)
		df.Funcs[node.Func] = ff
		df.order = append(df.order, ff)
	}

	an := &flowAnalyzer{df: df, info: info, pkg: pkg, pkgPath: pkgPath, cfgOf: cfgOf}
	// Summary fixed point: re-analyze every function until no summary
	// grows. Taint bits and sink keys are monotone, so this
	// terminates; the bound is a belt against bugs, not a semantics.
	for round := 0; round < len(df.order)+2; round++ {
		changed := false
		for _, ff := range df.order {
			if an.analyze(ff, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass: with summaries stable, collect the unconditional
	// findings.
	for _, ff := range df.order {
		an.analyze(ff, true)
	}
	return df
}

// flowAnalyzer holds the per-package state shared across functions.
type flowAnalyzer struct {
	df      *Dataflow
	info    *types.Info
	pkg     *types.Package
	pkgPath string
	cfgOf   func(*ast.FuncDecl) *CFG

	// per-function state, reset by analyze
	ff   *FuncFlow
	seed map[types.Object]taintVal
	vars map[types.Object]taintVal
}

// cleanType reports types that cannot transport secret material:
// booleans and the error interface (an error wrapping a secret is the
// error-payload sink's business at construction, not the value's).
func cleanType(t types.Type) bool {
	if t == nil {
		return false
	}
	if basic, ok := t.Underlying().(*types.Basic); ok {
		return basic.Info()&types.IsBoolean != 0
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "error" && obj.Pkg() == nil {
			return true
		}
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// analyze computes one function's summary over its control-flow
// graph; with report set it also appends the unconditional findings.
// It returns whether the summary grew.
//
// The analysis is flow-sensitive: each basic block is solved with its
// own state, a plain-identifier assignment strongly updates (so
// reassigning a variable to clean data kills its taint, and
// sanitizing on one branch no longer launders the sibling branch),
// while stores through fields and the effects of function literals
// merge weakly. Sinks and returns are judged under the state of the
// block they sit in.
func (a *flowAnalyzer) analyze(ff *FuncFlow, report bool) bool {
	if ff.Decl == nil || ff.Decl.Body == nil {
		return false
	}
	a.ff = ff
	a.seed = make(map[types.Object]taintVal)
	for i, p := range ff.Params {
		v := taintVal{bits: ParamBit(i)}
		if desc, ok := a.df.secrets.typeSecret(p.Type()); ok {
			v = v.union(taintVal{bits: AlwaysSecret, src: desc})
		}
		if desc, ok := a.df.secrets.vars[p]; ok {
			v = v.union(taintVal{bits: AlwaysSecret, src: desc})
		}
		a.seed[p] = v
	}

	cfg := a.cfgOf(ff.Decl)
	if cfg == nil {
		return false
	}
	sol := cfg.Solve((*taintFlow)(a))

	changed := false
	if report {
		ff.Findings = ff.Findings[:0]
	}
	// Deterministic reporting walk: re-run each block's transfer from
	// its solved in-state, judging sinks and returns along the way.
	for _, b := range cfg.Blocks {
		in, ok := sol[b]
		if !ok {
			continue // unreachable
		}
		st := cloneTaint(in.(map[types.Object]taintVal))
		a.vars = st
		for _, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet {
				if a.mergeReturn(ret) {
					changed = true
				}
			}
			if a.scanSinks(n, report) {
				changed = true
			}
			a.stepTaint(st, n)
		}
	}
	return changed
}

// mergeReturn folds one return statement's taint into the result
// summary under the current block state.
func (a *flowAnalyzer) mergeReturn(ret *ast.ReturnStmt) bool {
	ff := a.ff
	if ff.Sanitizer {
		return false
	}
	changed := false
	for j, v := range a.returnValues(ret) {
		if j >= len(ff.Results) {
			break
		}
		if nb := ff.Results[j] | v.bits; nb != ff.Results[j] {
			ff.Results[j] = nb
			changed = true
		}
		if v.bits&AlwaysSecret != 0 && ff.ResultSrc[j] == "" {
			ff.ResultSrc[j] = v.src
		}
	}
	return changed
}

// scanSinks judges every call in this node — including calls inside
// function literals, whose bodies first fold their assignments into
// the state weakly (the literal may run at any time).
func (a *flowAnalyzer) scanSinks(n ast.Node, report bool) bool {
	changed := false
	ShallowInspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			if a.sinkCall(x, report) {
				changed = true
			}
		case *ast.FuncLit:
			for iter := 0; iter < 32; iter++ {
				if !a.propagate(x.Body) {
					break
				}
			}
			ast.Inspect(x.Body, func(bn ast.Node) bool {
				if call, ok := bn.(*ast.CallExpr); ok {
					if a.sinkCall(call, report) {
						changed = true
					}
				}
				return true
			})
		}
		return true
	})
	return changed
}

// taintFlow adapts the analyzer to the CFG solver: states are
// variable→taint maps, joined pointwise where branches meet.
type taintFlow flowAnalyzer

func (t *taintFlow) Boundary() any {
	return cloneTaint((*flowAnalyzer)(t).seed)
}

func (t *taintFlow) Transfer(b *Block, in any) any {
	a := (*flowAnalyzer)(t)
	st := cloneTaint(in.(map[types.Object]taintVal))
	for _, n := range b.Nodes {
		a.stepTaint(st, n)
	}
	return st
}

func (t *taintFlow) Join(x, y any) any {
	xs, ys := x.(map[types.Object]taintVal), y.(map[types.Object]taintVal)
	out := cloneTaint(xs)
	for obj, v := range ys {
		out[obj] = out[obj].union(v)
	}
	return out
}

func (t *taintFlow) Equal(x, y any) bool {
	xs, ys := x.(map[types.Object]taintVal), y.(map[types.Object]taintVal)
	if len(xs) != len(ys) {
		return false
	}
	for obj, v := range xs {
		if w, ok := ys[obj]; !ok || w != v {
			return false
		}
	}
	return true
}

func cloneTaint(st map[types.Object]taintVal) map[types.Object]taintVal {
	out := make(map[types.Object]taintVal, len(st))
	for obj, v := range st {
		out[obj] = v
	}
	return out
}

// stepTaint applies one block node's effect to the state. Plain
// identifier targets of `=`/`:=` update strongly — assigning clean
// data kills the old taint — while compound stores and the bodies of
// function literals (which may run at any time) merge weakly.
func (a *flowAnalyzer) stepTaint(st map[types.Object]taintVal, n ast.Node) {
	a.vars = st
	strong := func(target ast.Expr, v taintVal, replace bool) {
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			obj := a.info.Defs[id]
			if obj == nil {
				obj = a.info.Uses[id]
			}
			if obj == nil {
				return
			}
			if cleanType(obj.Type()) {
				return
			}
			if !replace {
				v = st[obj].union(v)
			}
			if v.bits == 0 {
				delete(st, obj)
			} else {
				st[obj] = v
			}
			return
		}
		if v.bits == 0 {
			return
		}
		// x.f = secret taints x: the struct now carries the secret.
		if root := RootIdent(target); root != nil {
			obj := a.info.Uses[root]
			if obj == nil {
				obj = a.info.Defs[root]
			}
			if obj != nil {
				st[obj] = st[obj].union(v)
			}
		}
	}
	ShallowInspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			replace := x.Tok == token.ASSIGN || x.Tok == token.DEFINE
			if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
				v := a.eval(x.Rhs[0])
				for _, lhs := range x.Lhs {
					strong(lhs, v, replace)
				}
				return true
			}
			// Evaluate every source before any target updates, so
			// `x, y = y, x` reads the pre-state on both sides.
			vals := make([]taintVal, 0, len(x.Rhs))
			for _, rhs := range x.Rhs {
				vals = append(vals, a.eval(rhs))
			}
			for i, lhs := range x.Lhs {
				if i < len(vals) {
					strong(lhs, vals[i], replace)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 1 && len(x.Names) > 1 {
				v := a.eval(x.Values[0])
				for _, name := range x.Names {
					strong(name, v, true)
				}
				return true
			}
			for i, name := range x.Names {
				if i < len(x.Values) {
					strong(name, a.eval(x.Values[i]), true)
				}
			}
		case *ast.RangeStmt:
			v := a.eval(x.X)
			if x.Key != nil && a.rangeKeyCarries(x.X) {
				strong(x.Key, v, true)
			}
			if x.Value != nil {
				strong(x.Value, v, true)
			}
		case *ast.FuncLit:
			// The literal's assignments fold in weakly: it may run
			// zero or many times, now or later.
			for iter := 0; iter < 32; iter++ {
				if !a.propagate(x.Body) {
					break
				}
			}
		}
		return true
	})
}

// returnValues evaluates a return statement's operands, falling back
// to named results on a bare return.
func (a *flowAnalyzer) returnValues(ret *ast.ReturnStmt) []taintVal {
	if len(ret.Results) > 0 {
		if len(ret.Results) == 1 && len(a.ff.Results) > 1 {
			// return f() forwarding a tuple: smear the single taint.
			v := a.eval(ret.Results[0])
			out := make([]taintVal, len(a.ff.Results))
			for i := range out {
				out[i] = v
			}
			return out
		}
		out := make([]taintVal, len(ret.Results))
		for i, e := range ret.Results {
			out[i] = a.eval(e)
		}
		return out
	}
	// Bare return: read the named result objects.
	var out []taintVal
	if a.ff.Decl.Type.Results != nil {
		for _, field := range a.ff.Decl.Type.Results.List {
			for _, name := range field.Names {
				obj := a.info.Defs[name]
				out = append(out, a.vars[obj])
			}
		}
	}
	return out
}

// propagate runs one flow-insensitive pass over the body's
// assignments, returning whether any variable's taint grew.
func (a *flowAnalyzer) propagate(body ast.Node) bool {
	changed := false
	assign := func(target ast.Expr, v taintVal) {
		if v.bits == 0 {
			return
		}
		var obj types.Object
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			obj = a.info.Defs[id]
			if obj == nil {
				obj = a.info.Uses[id]
			}
			if obj != nil && cleanType(obj.Type()) {
				return
			}
		} else if root := RootIdent(target); root != nil {
			// x.f = secret taints x: the struct now carries the secret.
			obj = a.info.Uses[root]
			if obj == nil {
				obj = a.info.Defs[root]
			}
		}
		if obj == nil {
			return
		}
		old := a.vars[obj]
		merged := old.union(v)
		if merged.bits != old.bits || merged.src != old.src {
			a.vars[obj] = merged
			changed = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				v := a.eval(st.Rhs[0])
				for _, lhs := range st.Lhs {
					assign(lhs, v)
				}
				return true
			}
			for i, lhs := range st.Lhs {
				if i < len(st.Rhs) {
					assign(lhs, a.eval(st.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			if len(st.Values) == 1 && len(st.Names) > 1 {
				v := a.eval(st.Values[0])
				for _, name := range st.Names {
					assign(name, v)
				}
				return true
			}
			for i, name := range st.Names {
				if i < len(st.Values) {
					assign(name, a.eval(st.Values[i]))
				}
			}
		case *ast.RangeStmt:
			v := a.eval(st.X)
			if st.Key != nil && a.rangeKeyCarries(st.X) {
				assign(st.Key, v)
			}
			if st.Value != nil {
				assign(st.Value, v)
			}
		}
		return true
	})
	return changed
}

// rangeKeyCarries reports whether ranging over e binds a key that can
// carry the container's secret: map keys can, slice/array/string
// indexes are just positions.
func (a *flowAnalyzer) rangeKeyCarries(e ast.Expr) bool {
	tv, ok := a.info.Types[e]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type.Underlying()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array, *types.Basic, *types.Chan:
		return false
	}
	return true
}

// eval computes an expression's taint under the current state.
func (a *flowAnalyzer) eval(e ast.Expr) taintVal {
	v := a.evalInner(e)
	// Type-based secrecy applies to every expression uniformly.
	if tv, ok := a.info.Types[e]; ok && tv.Type != nil {
		if tv.Value != nil {
			return taintVal{} // constants are never secret
		}
		if desc, ok := a.df.secrets.typeSecret(tv.Type); ok {
			v = v.union(taintVal{bits: AlwaysSecret, src: desc})
		}
		if cleanType(tv.Type) {
			return taintVal{}
		}
	}
	return v
}

func (a *flowAnalyzer) evalInner(e ast.Expr) taintVal {
	switch x := e.(type) {
	case *ast.Ident:
		obj := a.info.Uses[x]
		if obj == nil {
			obj = a.info.Defs[x]
		}
		if obj == nil {
			return taintVal{}
		}
		v := a.vars[obj]
		if desc, ok := a.df.secrets.vars[obj]; ok {
			v = v.union(taintVal{bits: AlwaysSecret, src: desc})
		}
		return v
	case *ast.SelectorExpr:
		if sel := a.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			if desc, ok := a.df.secrets.fieldSecret(sel); ok {
				return taintVal{bits: AlwaysSecret, src: desc}
			}
		}
		// Package-level qualified var (pkg.Var) resolves via the Sel.
		if obj := a.info.Uses[x.Sel]; obj != nil {
			if desc, ok := a.df.secrets.vars[obj]; ok {
				return taintVal{bits: AlwaysSecret, src: desc}
			}
		}
		return a.eval(x.X)
	case *ast.CallExpr:
		return a.evalCall(x)
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v = v.union(a.eval(el))
		}
		return v
	case *ast.IndexExpr:
		return a.eval(x.X).union(a.eval(x.Index))
	case *ast.SliceExpr:
		return a.eval(x.X)
	case *ast.StarExpr:
		return a.eval(x.X)
	case *ast.ParenExpr:
		return a.eval(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return taintVal{} // channel receives drop taint (untracked)
		}
		return a.eval(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintVal{} // comparisons yield booleans
		}
		return a.eval(x.X).union(a.eval(x.Y))
	case *ast.TypeAssertExpr:
		return a.eval(x.X)
	}
	return taintVal{}
}

// evalCall computes a call's result taint: builtins, conversions,
// sanitizers, declared-secret results, in-package summaries, and the
// conservative any-argument rule for unresolved callees.
func (a *flowAnalyzer) evalCall(call *ast.CallExpr) taintVal {
	// Type conversion T(x) passes taint through.
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return a.eval(call.Args[0])
	}
	obj := CalleeObject(a.info, call)
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "len", "cap", "make", "new", "delete", "close", "min", "max":
			return taintVal{}
		}
		// append, copy, etc.: taint of the operands.
		var v taintVal
		for _, arg := range call.Args {
			v = v.union(a.eval(arg))
		}
		return v
	}
	if a.df.secrets.sanitizer(obj) {
		return taintVal{}
	}
	if desc, ok := a.df.secrets.resultSecret(obj); ok {
		return taintVal{bits: AlwaysSecret, src: desc}
	}
	if fn, ok := obj.(*types.Func); ok {
		if callee := a.df.Funcs[fn]; callee != nil {
			return a.summaryResult(call, callee)
		}
	}
	// Unresolved or external: results depend on every operand,
	// including the method receiver.
	var v taintVal
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := a.info.Selections[sel]; s != nil {
			v = v.union(a.eval(sel.X))
		}
	}
	for _, arg := range call.Args {
		v = v.union(a.eval(arg))
	}
	return v
}

// argExpr maps a callee formal index onto the call's argument
// expression (the receiver comes from the selector), or nil.
func (a *flowAnalyzer) argExpr(call *ast.CallExpr, callee *FuncFlow, formal int) ast.Expr {
	offset := 0
	if sig, ok := callee.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if formal == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		offset = 1
	}
	i := formal - offset
	if i < 0 {
		return nil
	}
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// variadicTail returns the extra arguments that pile into the last
// formal of a variadic callee.
func (a *flowAnalyzer) variadicTail(call *ast.CallExpr, callee *FuncFlow, formal int) []ast.Expr {
	sig, ok := callee.Fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() {
		return nil
	}
	offset := 0
	if sig.Recv() != nil {
		offset = 1
	}
	if formal != len(callee.Params)-1 {
		return nil
	}
	i := formal - offset
	if i+1 >= len(call.Args) {
		return nil
	}
	return call.Args[i+1:]
}

// formalTaint evaluates everything the caller passes into one formal.
func (a *flowAnalyzer) formalTaint(call *ast.CallExpr, callee *FuncFlow, formal int) taintVal {
	var v taintVal
	if e := a.argExpr(call, callee, formal); e != nil {
		v = v.union(a.eval(e))
	}
	for _, e := range a.variadicTail(call, callee, formal) {
		v = v.union(a.eval(e))
	}
	return v
}

// summaryResult applies a callee summary to a call site.
func (a *flowAnalyzer) summaryResult(call *ast.CallExpr, callee *FuncFlow) taintVal {
	var v taintVal
	for j, bits := range callee.Results {
		if bits&AlwaysSecret != 0 {
			v = v.union(taintVal{bits: AlwaysSecret, src: callee.ResultSrc[j]})
		}
		for i := range callee.Params {
			if bits&ParamBit(i) != 0 {
				v = v.union(a.formalTaint(call, callee, i))
			}
		}
	}
	return v
}

// sinkCall handles one call site's sink obligations: direct sinks and
// callee summaries' conditional sinks. It returns whether this
// function's summary grew.
func (a *flowAnalyzer) sinkCall(call *ast.CallExpr, report bool) bool {
	changed := false
	record := func(v taintVal, sink string, chain []string, pos token.Pos) {
		if v.bits&AlwaysSecret != 0 && report {
			a.addFinding(Finding{Pos: pos, Sink: sink, Chain: chain, Source: v.src})
		}
		for i := range a.ff.Params {
			if v.bits&ParamBit(i) != 0 {
				if a.addSink(SinkFlow{Param: i, Sink: sink, Chain: chain, Pos: pos}) {
					changed = true
				}
			}
		}
	}

	obj := CalleeObject(a.info, call)
	if sink, ok := sinkOf(a.pkgPath, obj); ok {
		for _, arg := range call.Args {
			record(a.eval(arg), sink, nil, arg.Pos())
		}
		return changed
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return changed
	}
	callee := a.df.Funcs[fn]
	if callee == nil {
		return changed
	}
	for _, sf := range callee.Sinks {
		if sf.Param >= len(callee.Params) {
			continue
		}
		v := a.formalTaint(call, callee, sf.Param)
		if v.bits == 0 {
			continue
		}
		chain := append([]string{callee.Fn.Name()}, sf.Chain...)
		record(v, sf.Sink, chain, call.Pos())
	}
	return changed
}

// addSink appends a conditional sink flow, deduplicated by
// (formal, sink) so chains cannot multiply through recursion.
func (a *flowAnalyzer) addSink(sf SinkFlow) bool {
	for _, have := range a.ff.Sinks {
		if have.Param == sf.Param && have.Sink == sf.Sink {
			return false
		}
	}
	a.ff.Sinks = append(a.ff.Sinks, sf)
	return true
}

// addFinding appends an unconditional finding, deduplicated by
// position and sink.
func (a *flowAnalyzer) addFinding(f Finding) {
	for _, have := range a.ff.Findings {
		if have.Pos == f.Pos && have.Sink == f.Sink {
			return
		}
	}
	a.ff.Findings = append(a.ff.Findings, f)
}
