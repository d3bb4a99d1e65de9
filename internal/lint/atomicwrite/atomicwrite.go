// Package atomicwrite enforces the durability rule from internal/wal:
// files that survive a crash must be replaced atomically (temp file +
// fsync + rename + directory fsync), never written in place. Direct
// calls to os.Create, os.WriteFile or os.Rename are therefore
// forbidden everywhere except internal/wal/atomic.go — the one place
// the primitive sequence is allowed to live — and _test.go files
// (tests routinely corrupt fixture files on purpose). Everything else
// routes through wal.AtomicWriteFile / authenticache.AtomicWriteFile.
//
// os.OpenFile is deliberately not in the forbidden set: the WAL's
// append path owns its segment files and fsyncs explicitly; the
// classic lost-database bug is truncate-then-crash via os.Create or a
// non-atomic os.Rename shuffle, which is what this analyzer pins.
package atomicwrite

import (
	"go/ast"
	"path/filepath"

	"repro/internal/lint"
)

// Analyzer is the atomicwrite entry point.
var Analyzer = &lint.Analyzer{
	Name: "atomicwrite",
	Doc:  "os.Create/os.WriteFile/os.Rename forbidden outside internal/wal/atomic.go; use the atomic temp+fsync+rename helper",
	Run:  run,
}

// forbidden are the os functions that clobber files in place.
var forbidden = map[string]bool{
	"Create":    true,
	"WriteFile": true,
	"Rename":    true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "atomic.go" && pass.Pkg.Name() == "wal" {
			continue // the blessed implementation site
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := lint.CalleeObject(pass.TypesInfo, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" || !forbidden[obj.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct os.%s bypasses the atomic temp+fsync+rename path; a crash mid-write can destroy the only copy — use wal.AtomicWriteFile (facade: authenticache.AtomicWriteFile)",
				obj.Name())
			return true
		})
	}
	return nil
}
