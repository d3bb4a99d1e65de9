package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors holds soft type-check problems. The analyzers run
	// anyway (the checker recovers and still populates Info), but the
	// driver surfaces them so a broken tree isn't silently half-
	// checked.
	TypeErrors []error

	// cg is the lazily built call graph, shared by every analyzer of
	// this package via Pass.CallGraph().
	cg *CallGraph
	// df is the lazily built taint dataflow, shared the same way via
	// Pass.Dataflow().
	df *Dataflow
	// cfgs caches per-function control-flow graphs, shared the same
	// way via Pass.CFG(fn).
	cfgs map[*ast.FuncDecl]*CFG
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	GoFiles    []string
	Imports    []string
}

// Load expands patterns with `go list` inside dir and returns the
// matched packages, parsed and type-checked. Module-internal imports
// are type-checked from source in dependency order; standard-library
// imports resolve through go/importer's source importer.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// The full dependency closure, dependencies first.
	deps, err := goList(dir, append([]string{"-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	// The packages the patterns name (the ones to report on).
	roots, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	rootSet := make(map[string]bool, len(roots))
	for _, p := range roots {
		rootSet[p.ImportPath] = true
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: make(map[string]*types.Package),
	}
	var out []*Package
	for _, lp := range deps {
		if lp.Standard {
			continue // resolved lazily by the source importer
		}
		pkg, err := ld.check(lp)
		if err != nil {
			return nil, err
		}
		if rootSet[lp.ImportPath] {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// goList runs `go list -json` with args inside dir.
func goList(dir string, args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(outBytes))
	var out []*listedPackage
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		out = append(out, &p)
	}
	return out, nil
}

// loader type-checks module packages in dependency order, chaining to
// the source importer for the standard library.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*types.Package
}

// Import implements types.Importer: module packages come from the
// already-checked set, everything else from the stdlib source
// importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	return ld.std.Import(path)
}

// check parses and type-checks one listed package.
func (ld *loader) check(lp *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	pkg, info, terrs := typeCheck(ld.fset, ld, lp.ImportPath, files)
	ld.checked[lp.ImportPath] = pkg
	return &Package{
		PkgPath:    lp.ImportPath,
		Name:       lp.Name,
		Dir:        lp.Dir,
		Fset:       ld.fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
		TypeErrors: terrs,
	}, nil
}

// typeCheck runs the types checker, collecting soft errors instead of
// stopping at the first.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	var terrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, _ := conf.Check(path, fset, files, info) // errors already collected
	return pkg, info, terrs
}

// LoadDir parses and type-checks the single package rooted at dir —
// the fixture loader behind linttest. The synthesized import path is
// dir's path relative to the nearest "src" ancestor (mirroring the
// analysistest testdata/src convention), so fixtures can exercise
// path-sensitive rules (e.g. secretflow's cmd/ exemption).
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read fixture dir: %w", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkgPath := fixturePath(dir)
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, info, terrs := typeCheck(fset, imp, pkgPath, files)
	name := ""
	if pkg != nil {
		name = pkg.Name()
	}
	return &Package{
		PkgPath:    pkgPath,
		Name:       name,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
		TypeErrors: terrs,
	}, nil
}

// TypeCheckFiles type-checks already-parsed files as one package with
// an explicit importer — the entry point for the vettool driver,
// which resolves imports from cmd/go's pre-built export data instead
// of from source.
func TypeCheckFiles(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []*ast.File) (*Package, error) {
	pkg, info, terrs := typeCheck(fset, imp, pkgPath, files)
	if pkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s produced no package", pkgPath)
	}
	return &Package{
		PkgPath:    pkgPath,
		Name:       pkg.Name(),
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
		TypeErrors: terrs,
	}, nil
}

// fixturePath derives the synthetic import path for a fixture dir:
// the segments after the last "src" element, or the base name.
func fixturePath(dir string) string {
	clean := filepath.ToSlash(filepath.Clean(dir))
	parts := strings.Split(clean, "/")
	for i := len(parts) - 1; i >= 0; i-- {
		if parts[i] == "src" && i < len(parts)-1 {
			return strings.Join(parts[i+1:], "/")
		}
	}
	return filepath.Base(clean)
}
