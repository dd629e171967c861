// Package ctxpropagate enforces deadline propagation through the
// serving stack. Inside a function that already carries a
// context.Context, calling the context-blind variant of an operation
// that has a *Context twin (slog's Info vs InfoContext, …)
// silently detaches the work from the caller's deadline and
// cancellation — the bug class PR 4's cancellation layer exists to
// prevent. Likewise, minting a fresh context.Background()/TODO() for a
// callee while a perfectly good ctx is in scope severs the chain.
package ctxpropagate

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"cacheautomaton/internal/analysis"
)

// Analyzer reports broken context chains.
func Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "ctxpropagate",
		Doc:  "in ctx-carrying functions, use the *Context variant and pass the ctx along",
		Run:  run,
	}
}

func run(u *analysis.Unit) []analysis.Finding {
	var fs []analysis.Finding
	for _, fi := range u.Functions() {
		if !hasCtxParam(fi) {
			continue
		}
		fs = append(fs, checkFunc(u, fi.Pkg, fi.Decl)...)
	}
	return fs
}

// hasCtxParam reports whether the function declares a context.Context
// parameter.
func hasCtxParam(fi *analysis.FuncInfo) bool {
	params := fi.Obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if analysis.IsContextContext(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func checkFunc(u *analysis.Unit, pkg *analysis.Pkg, fd *ast.FuncDecl) []analysis.Finding {
	var fs []analysis.Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule A: context-blind method with a *Context twin.
		if fn, named, isMethod := analysis.MethodCall(pkg.Info, call); isMethod && named != nil {
			name := fn.Name()
			twin := name + "Context"
			// The *Context wrapper itself legitimately calls the blind
			// variant after checking ctx.Done() == nil.
			if fd.Name.Name != twin && !strings.HasSuffix(name, "Context") &&
				!callTakesCtx(pkg.Info, fn) && analysis.HasMethod(named, twin) {
				fs = append(fs, analysis.Finding{
					Pos: u.Position(call.Pos()),
					Message: fmt.Sprintf("%s has a ctx in scope but calls %s.%s; use %s so the deadline and cancellation propagate",
						fd.Name.Name, named.Obj().Name(), name, twin),
				})
			}
		}
		// Rule B: handing a callee a fresh root context while ctx is in
		// scope. Callees inside package context itself (WithTimeout,
		// WithCancel...) are exempt: deriving a deliberately detached
		// context, as the daemon's drain path does, is an explicit,
		// reviewable decision.
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok || !analysis.IsFreshRoot(pkg.Info, inner) {
				continue
			}
			if callee := analysis.StaticCallee(pkg.Info, call); callee != nil {
				if p := callee.Pkg(); p != nil && p.Path() == "context" {
					continue
				}
			}
			fs = append(fs, analysis.Finding{
				Pos: u.Position(inner.Pos()),
				Message: fmt.Sprintf("%s has a ctx in scope but passes a fresh %s to a callee; pass the ctx (or derive from it) so cancellation reaches the work",
					fd.Name.Name, rootName(pkg.Info, inner)),
			})
		}
		return true
	})
	return fs
}

// callTakesCtx reports whether the method already accepts a Context —
// then there is nothing to propagate differently.
func callTakesCtx(info *types.Info, fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if analysis.IsContextContext(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func rootName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.StaticCallee(info, call); fn != nil {
		return "context." + fn.Name() + "()"
	}
	return "root context"
}
