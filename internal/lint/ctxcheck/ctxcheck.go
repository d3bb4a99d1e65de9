// Package ctxcheck enforces context propagation:
//
//  1. context.Background() and context.TODO() may be minted only at
//     program edges — packages under cmd/ or examples/, and _test.go
//     files. Library code (internal/, the facade) must thread the
//     caller's context.
//  2. Anywhere — edges included — a function that already receives a
//     ctx parameter must not mint a fresh root context for a callee;
//     it must pass (or derive from) the ctx it was given. This is the
//     bug class where a deadline silently stops propagating.
package ctxcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the ctxcheck entry point.
var Analyzer = &lint.Analyzer{
	Name: "ctxcheck",
	Doc:  "no context.Background()/TODO() outside cmd/, examples/ and tests; functions receiving ctx must propagate it",
	Run:  run,
}

func run(pass *lint.Pass) error {
	edge := pass.EdgePackage()
	for _, scope := range lint.FuncScopes(pass.Files) {
		hasCtx := scopeHasCtx(pass.TypesInfo, scope)
		scope.InspectShallow(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, isRoot := rootCtxCall(pass.TypesInfo, call)
			if !isRoot {
				return true
			}
			switch {
			case hasCtx:
				pass.Reportf(call.Pos(),
					"function already receives a context; pass ctx (or a context derived from it) instead of context.%s()", name)
			case !edge && !pass.InTestFile(call.Pos()):
				pass.Reportf(call.Pos(),
					"context.%s() is forbidden in library code; accept a context.Context from the caller (only cmd/, examples/ and tests mint root contexts)", name)
			}
			return true
		})
	}
	return nil
}

// rootCtxCall matches context.Background() / context.TODO().
func rootCtxCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := lint.CalleeObject(info, call)
	if lint.IsPkgFunc(obj, "context", "Background") {
		return "Background", true
	}
	if lint.IsPkgFunc(obj, "context", "TODO") {
		return "TODO", true
	}
	return "", false
}

// scopeHasCtx reports whether the function, or for a literal any
// enclosing function it closes over, declares a context.Context
// parameter.
func scopeHasCtx(info *types.Info, scope *lint.FuncScope) bool {
	for s := scope; s != nil; s = s.Parent {
		if s.Type == nil || s.Type.Params == nil {
			continue
		}
		for _, field := range s.Type.Params.List {
			tv, ok := info.Types[field.Type]
			if !ok {
				continue
			}
			if isContextType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// isContextType matches the context.Context interface type.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
