// Package lint is the repo's static-analysis framework: a minimal,
// dependency-free re-creation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) built on the standard
// library's go/ast and go/types. The container this repo builds in
// has no module proxy access, so the x/tools machinery is
// re-implemented rather than imported; the API is kept shape-
// compatible so the analyzers port to the real framework unchanged if
// x/tools ever becomes available.
//
// The analyzers live in subpackages, one per invariant family, and
// the internal/lint/analyzers registry lists them; cmd/authlint
// drives them over `go list` patterns and exits non-zero on any
// diagnostic. See DESIGN.md §7 for what each one guarantees.
//
// # Suppressing a finding
//
// A deliberate exception is annotated at the reported line (or the
// line above it) with
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore directive without one is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker. The shape mirrors
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is the one-paragraph invariant description shown by
	// `authlint -help`.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package; nil only if type checking
	// failed catastrophically (the driver skips such packages).
	Pkg *types.Package
	// TypesInfo records types, definitions, uses and selections for
	// every expression in Files.
	TypesInfo *types.Info
	// PkgPath is the import path (or a synthesized path for fixture
	// packages loaded from a bare directory).
	PkgPath string

	// pkg is the loaded package this pass runs over; it caches
	// cross-analyzer state (the call graph).
	pkg *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The
// standalone loader drops tests, but the vettool driver feeds them
// into the pass, and tests break the invariants on purpose.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// EdgePackage reports whether the package is a program edge: a path
// segment equals cmd or examples. CLIs and examples print provisioned
// keys as their user interface, so secretflow exempts them.
func (p *Pass) EdgePackage() bool {
	for _, seg := range strings.Split(p.PkgPath, "/") {
		if seg == "cmd" || seg == "examples" {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int // the line the directive suppresses
	analyzer string
	hasWhy   bool
	position token.Position
}

// parseIgnores extracts //lint:ignore directives from a package. A
// directive on its own line suppresses the next line; a trailing
// directive suppresses its own line.
func parseIgnores(fset *token.FileSet, files []*ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
				fields := strings.Fields(rest)
				d := ignoreDirective{position: fset.Position(c.Pos())}
				if len(fields) > 0 {
					d.analyzer = fields[0]
				}
				d.hasWhy = len(fields) > 1
				d.file = d.position.Filename
				d.line = d.position.Line
				// A comment alone on its line suppresses the line
				// below it; a trailing comment suppresses its own.
				if ownLine(fset, f, c) {
					d.line++
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// ownLine reports whether comment c is the first thing on its line.
func ownLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	first := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !first {
			return false
		}
		npos := fset.Position(n.Pos())
		if npos.Filename == cpos.Filename && npos.Line == cpos.Line && n.Pos() < c.Pos() {
			first = false
			return false
		}
		return true
	})
	return first
}

// RunPackage executes the analyzers over one loaded package and
// returns the surviving (non-suppressed) diagnostics in position
// order.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			PkgPath:   pkg.PkgPath,
			pkg:       pkg,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	ignores := parseIgnores(pkg.Fset, pkg.Files)
	diags = applyIgnores(diags, ignores, ran)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// applyIgnores drops diagnostics matched by a directive and adds a
// diagnostic for malformed (reason-less) directives and for unused
// ones: an ignore that suppresses nothing is stale armor — either the
// finding it excused is gone and the directive should go with it, or
// it never matched anything and is silently excusing nothing. Unused
// is only decidable for analyzers that actually ran (ran holds their
// names), so a partial run never flags directives it cannot judge.
func applyIgnores(diags []Diagnostic, ignores []ignoreDirective, ran map[string]bool) []Diagnostic {
	used := make([]bool, len(ignores))
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for i, ig := range ignores {
			if ig.hasWhy && ig.analyzer == d.Analyzer && ig.file == d.Pos.Filename && ig.line == d.Pos.Line {
				suppressed = true
				used[i] = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for i, ig := range ignores {
		switch {
		case !ig.hasWhy:
			out = append(out, Diagnostic{
				Analyzer: "lint",
				Pos:      ig.position,
				Message:  "lint:ignore directive needs a reason: //lint:ignore <analyzer> <why this exception is sound>",
			})
		case !used[i] && ran[ig.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "lint",
				Pos:      ig.position,
				Message:  fmt.Sprintf("unused lint:ignore directive: %s reports nothing on the suppressed line; delete the directive", ig.analyzer),
			})
		}
	}
	return out
}

// Run executes the analyzers over every package and concatenates the
// diagnostics.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

// --- Shared AST helpers used by the analyzers ------------------------------

// CalleeObject resolves the object a call expression invokes (function,
// method or builtin), or nil.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// IsPkgFunc reports whether obj is the function pkgPath.name.
func IsPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// RootIdent walks a selector/index/paren chain x.a.b[i].c down to its
// leftmost identifier, or nil for non-chain expressions (calls,
// literals, etc.).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedName returns t's type name, or "" for unnamed types.
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// FuncScope is one lexical function body: a declaration or a literal.
type FuncScope struct {
	// Name is the declared name ("" for literals).
	Name string
	// Body is the function body.
	Body *ast.BlockStmt
	// Parent is the enclosing scope for literals (nil for decls).
	Parent *FuncScope
}

// FuncScopes collects every function declaration and literal in the
// files, with literals linked to their enclosing scope.
func FuncScopes(files []*ast.File) []*FuncScope {
	var out []*FuncScope
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root := &FuncScope{Name: fd.Name.Name, Body: fd.Body}
			out = append(out, root)
			out = append(out, nestedLits(root)...)
		}
	}
	return out
}

// nestedLits finds function literals inside scope, attaching parents.
func nestedLits(scope *FuncScope) []*FuncScope {
	var out []*FuncScope
	var walk func(n ast.Node, parent *FuncScope)
	walk = func(n ast.Node, parent *FuncScope) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok || m == n {
				return true
			}
			child := &FuncScope{Body: lit.Body, Parent: parent}
			out = append(out, child)
			walk(lit.Body, child)
			return false // children handled by the recursive walk
		})
	}
	walk(scope.Body, scope)
	return out
}

// InspectShallow walks the body of one scope without descending into
// nested function literals (each literal is its own scope).
func (s *FuncScope) InspectShallow(fn func(n ast.Node) bool) {
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return fn(n)
	})
}
