// Package release enforces the pooled wire buffer discipline on the
// lint framework's ownership engine: every buffer wire.GetBuf hands
// out must reach wire.PutBuf exactly once on every path — error
// returns and panic exits included (a deferred put covers both) — must
// never be used after it was put back, and must never be put twice.
// One pool carries replication frames (enroll records with error maps
// and keys) and client-port frames, so a double put can hand a buffer
// that still holds a replicated record to a client-port writer.
//
// Findings name the branch condition of the offending path, so "leaks
// when ReadFrameInto fails" reads straight off the report. Ownership
// transfers interprocedurally: a function that returns the buffer
// hands the obligation to its caller (constructor summary), and a
// call that stores its argument into a struct field, channel, or
// goroutine on every path consumes it (disposition summary), so a
// `newFrame`-style helper neither hides a leak nor causes a false one.
//
// Test files are exempt: tests abandon buffers on purpose.
package release

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the release entry point.
var Analyzer = &lint.Analyzer{
	Name: "release",
	Doc:  "pooled wire buffers (wire.GetBuf) reach wire.PutBuf exactly once on every path and are never used after, interprocedurally via ownership-transfer summaries",
	Run:  run,
}

// wirePkg is the buffer pool's home package.
const wirePkg = "repro/internal/wire"

func run(pass *lint.Pass) error {
	info := pass.TypesInfo
	cfg := &lint.OwnershipConfig{
		Acquire: func(call *ast.CallExpr) (string, bool) {
			if !isWireFunc(lint.CalleeObject(info, call), "GetBuf") {
				return "", false
			}
			return "pooled buffer from wire.GetBuf", true
		},
		Release: func(call *ast.CallExpr) (ast.Expr, bool) {
			if len(call.Args) == 0 || !isWireFunc(lint.CalleeObject(info, call), "PutBuf") {
				return nil, false
			}
			return call.Args[0], true
		},
		Tracks: isWireBuf,
	}
	for _, f := range lint.RunOwnership(pass, cfg) {
		if pass.InTestFile(f.Pos) {
			continue
		}
		switch f.Kind {
		case lint.OwnLeak:
			via := ""
			if f.Via != "" {
				via = " on the path via " + f.Via
			}
			pass.Reportf(f.Pos, "%s %q is not returned to the pool on every path%s", f.Desc, f.Name, via)
		case lint.OwnDiscard:
			pass.Reportf(f.Pos, "result of %s is discarded: the buffer can never be returned to the pool", f.Desc)
		case lint.OwnReassign:
			pass.Reportf(f.Pos, "%q is overwritten while still holding an unreleased %s (acquired at %s)", f.Name, f.Desc, pass.Fset.Position(f.AcqPos))
		case lint.OwnDoubleRelease:
			pass.Reportf(f.Pos, "%s %q is put back twice (previous release at %s)", f.Desc, f.Name, pass.Fset.Position(f.RelPos))
		case lint.OwnUseAfterRelease:
			pass.Reportf(f.Pos, "use of %q after it was returned to the pool at %s", f.Name, pass.Fset.Position(f.RelPos))
		}
	}
	return nil
}

func isWireFunc(obj types.Object, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == wirePkg
}

// isWireBuf reports whether t is *wire.Buf, what GetBuf returns. Only
// formals of that type join the interprocedural analysis.
func isWireBuf(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Buf" && obj.Pkg() != nil && obj.Pkg().Path() == wirePkg
}
