// Package release enforces release on every path for the two kinds of
// owned values the system hands around, on the lint framework's
// ownership engine:
//
//   - Pooled wire buffers. Every buffer wire.GetBuf hands out must
//     reach wire.PutBuf exactly once on every path — error returns and
//     panic exits included (a deferred put covers both) — must never
//     be used after it was put back, and must never be put twice.
//   - OS-backed resources. Connections from net.Dial/DialTimeout,
//     listeners from net.Listen, conns from a listener's Accept, files
//     from os.Open/OpenFile/Create, and tickers/timers from
//     time.NewTicker/NewTimer must be Closed (or Stopped) on every path
//     out of the function that owns them. Close is idempotent, so only
//     leaks, discards and overwrites are reported.
//
// Findings name the branch condition of the offending path, so "leaks
// when ReadFrameInto fails" reads straight off the report. Ownership
// transfers interprocedurally: a function that returns the value
// hands the obligation to its caller (constructor summary), and a
// call that stores its argument into a struct field, channel, or
// goroutine on every path consumes it (disposition summary), so a
// `newConn`-style helper neither hides a leak nor causes a false one.
//
// Test files are exempt: tests abandon resources on purpose. Program
// edges (packages under cmd/ and examples/) are exempt from the
// resource rule: they run to exit, and the OS reclaims their handles.
package release

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the release entry point.
var Analyzer = &lint.Analyzer{
	Name: "release",
	Doc:  "pooled wire buffers (wire.GetBuf) reach wire.PutBuf exactly once on every path and are never used after; conns, listeners, files, tickers and timers (net.Dial, Accept, os.Open, time.NewTicker, ...) are released on every path, interprocedurally via ownership-transfer summaries",
	Run:  run,
}

// wirePkg is the buffer pool's home package.
const wirePkg = "repro/internal/wire"

// acquireFuncs maps std acquisition functions to a resource
// description.
var acquireFuncs = map[string]string{
	"net.Dial":        "net.Conn from net.Dial",
	"net.DialTimeout": "net.Conn from net.DialTimeout",
	"net.Listen":      "net.Listener from net.Listen",
	"os.Open":         "*os.File from os.Open",
	"os.OpenFile":     "*os.File from os.OpenFile",
	"os.Create":       "*os.File from os.Create",
	"time.NewTicker":  "*time.Ticker from time.NewTicker",
	"time.NewTimer":   "*time.Timer from time.NewTimer",
}

// discipline is one seed set and the wording of its findings. Each is
// solved on its own: pooled buffers need the exact mode (double
// release, use after release), and Close-style releases must not get
// it.
type discipline struct {
	cfg *lint.OwnershipConfig
	// Formats: leak takes desc, name and the path; discard takes
	// desc; reassign takes name, desc and the acquisition site.
	leak, discard, reassign string
}

func run(pass *lint.Pass) error {
	info := pass.TypesInfo
	ds := []discipline{{
		cfg: &lint.OwnershipConfig{
			Exact: true,
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
		},
		leak:     "%s %q is not returned to the pool on every path%s",
		discard:  "result of %s is discarded: the buffer can never be returned to the pool",
		reassign: "%q is overwritten while still holding an unreleased %s (acquired at %s)",
	}}
	if !pass.EdgePackage() {
		ds = append(ds, discipline{
			cfg: &lint.OwnershipConfig{
				Acquire: func(call *ast.CallExpr) (string, bool) { return acquires(info, call) },
				Release: func(call *ast.CallExpr) (ast.Expr, bool) { return releases(info, call) },
				// Close/Stop-able values are the only ones whose flow
				// through parameters matters for summaries.
				Tracks: func(t types.Type) bool { return hasMethod(t, "Close") || hasMethod(t, "Stop") },
			},
			leak:     "%s %q is not released on every path%s",
			discard:  "%s is discarded without being released",
			reassign: "%q is overwritten while still holding an open %s (acquired at %s)",
		})
	}
	for _, d := range ds {
		for _, f := range lint.RunOwnership(pass, d.cfg) {
			if pass.InTestFile(f.Pos) {
				continue
			}
			switch f.Kind {
			case lint.OwnLeak:
				via := ""
				if f.Via != "" {
					via = " on the path via " + f.Via
				}
				pass.Reportf(f.Pos, d.leak, f.Desc, f.Name, via)
			case lint.OwnDiscard:
				pass.Reportf(f.Pos, d.discard, f.Desc)
			case lint.OwnReassign:
				pass.Reportf(f.Pos, d.reassign, f.Name, f.Desc, pass.Fset.Position(f.AcqPos))
			case lint.OwnDoubleRelease:
				pass.Reportf(f.Pos, "%s %q is put back twice (previous release at %s)", f.Desc, f.Name, pass.Fset.Position(f.RelPos))
			case lint.OwnUseAfterRelease:
				pass.Reportf(f.Pos, "use of %q after it was returned to the pool at %s", f.Name, pass.Fset.Position(f.RelPos))
			}
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

// acquires classifies resource-producing calls: the std constructor
// list plus any method named Accept whose first result has a Close
// method (the net.Listener shape, including wrappers).
func acquires(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := lint.CalleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if desc, ok := acquireFuncs[fn.Pkg().Name()+"."+fn.Name()]; ok && isStdPkg(fn.Pkg()) {
		return desc, true
	}
	if fn.Name() == "Accept" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && sig.Results().Len() > 0 {
			if hasMethod(sig.Results().At(0).Type(), "Close") {
				return "conn from " + fn.FullName(), true
			}
		}
	}
	return "", false
}

// releases recognizes Close/Stop method calls with no arguments; the
// released value is the receiver.
func releases(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 0 {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Stop") {
		return nil, false
	}
	fn, ok := lint.CalleeObject(info, call).(*types.Func)
	if !ok {
		return nil, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil, false
	}
	return sel.X, true
}

// isStdPkg keeps the acquireFuncs match honest: the key uses package
// *names*, so require a stdlib-shaped import path (no dot, no slash
// before the name) to avoid matching a local package named os.
func isStdPkg(pkg *types.Package) bool {
	path := pkg.Path()
	return !strings.Contains(path, ".") && (path == pkg.Name() || !strings.Contains(path, "/"))
}

// hasMethod reports whether t (or *t) has a method named name.
// LookupFieldOrMethod with addressable=true folds in pointer-receiver
// methods without materializing a full method set, which Tracks calls
// far too often for NewMethodSet to be affordable.
func hasMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}
