// Package goroutinelife flags fire-and-forget goroutines in the
// serving packages (server, cluster, telemetry): every `go` statement
// there must carry a provable shutdown path, because a goroutine that
// outlives drain keeps mutating shared state after Close returns and
// turns clean shutdown into a data race.
//
// Accepted proofs, checked over the spawned body and every in-module
// function statically reachable from it (via the shared callgraph):
//
//  1. a channel receive — a select/receive on a done/stop channel or
//     ctx.Done() gives the owner a rendezvous to stop the goroutine;
//  2. a sync.WaitGroup join — the body calls wg.Done() (the spawner
//     Waits), or the body itself is a wg.Wait() waiter;
//  3. context forwarding — the spawned call receives a
//     context.Context, or the body passes one into a blocking call, so
//     the work is bounded by the context's deadline/cancel. A direct
//     context.Background() or context.TODO() argument is no such bound:
//     nothing can cancel it;
//  4. an explicit owner annotation on the `go` statement (or the line
//     above): //cavet:owner <owner> <reason>, naming the API that
//     bounds the goroutine's lifetime (e.g. an http.Server whose Close
//     unblocks Serve).
//
// Goroutines whose target cannot be resolved statically (interface
// method, function value) get no benefit of the doubt: annotate them.
package goroutinelife

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cacheautomaton/internal/analysis"
)

// ownerPrefix introduces a lifecycle-owner annotation.
const ownerPrefix = "//cavet:owner"

// scopedPkgs are the package names whose goroutines must prove a
// shutdown path (matching by name lets the analysistest modules
// reproduce production packages).
var scopedPkgs = map[string]bool{"server": true, "cluster": true, "telemetry": true}

// visitBudget caps the reachable-body search per goroutine so a
// pathological callgraph cannot blow up the analysis.
const visitBudget = 32

// Analyzer reports goroutines without a provable shutdown path.
func Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "goroutinelife",
		Doc:       "every go statement in server/cluster/telemetry needs a shutdown proof or a //cavet:owner annotation",
		SkipTests: true,
		Run:       run,
	}
}

func run(u *analysis.Unit) []analysis.Finding {
	cg := u.CallGraph()
	owners, fs := collectOwners(u)
	for _, fi := range u.Functions() {
		if !scopedPkgs[fi.Pkg.Name] {
			continue
		}
		fi := fi
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pos := u.Position(gs.Pos())
			if owners.covers(pos.Filename, pos.Line) {
				return true
			}
			if proved(cg, fi.Pkg, gs.Call) {
				return true
			}
			fs = append(fs, analysis.Finding{
				Pos: pos,
				Message: "goroutine has no provable shutdown path (no channel receive, WaitGroup join, or context bound) and no //cavet:owner annotation; " +
					"a fire-and-forget goroutine outlives drain",
			})
			return true
		})
	}
	return fs
}

// proved reports whether the spawned call carries one of the structural
// shutdown proofs, searching the root body plus statically reachable
// in-module callees up to visitBudget functions.
func proved(cg *analysis.CallGraph, pkg *analysis.Pkg, call *ast.CallExpr) bool {
	// Proof 3 (cheap form): the spawned call itself takes a context.
	if anyCtxArg(pkg.Info, call.Args) {
		return true
	}

	type body struct {
		info *types.Info
		node ast.Node
	}
	var queue []body
	seen := make(map[string]bool)
	enqueueCallee := func(fn *types.Func) {
		if fn == nil || seen[fn.FullName()] {
			return
		}
		seen[fn.FullName()] = true
		if fi := cg.ByName[fn.FullName()]; fi != nil {
			queue = append(queue, body{fi.Pkg.Info, fi.Decl.Body})
		}
	}
	if lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		queue = append(queue, body{pkg.Info, lit.Body})
	} else {
		fn := analysis.StaticCallee(pkg.Info, call)
		if fn == nil {
			return false // dynamic target: require an annotation
		}
		enqueueCallee(fn)
		if len(queue) == 0 {
			return false // no body available (out-of-module target)
		}
	}

	visited := 0
	for len(queue) > 0 && visited < visitBudget {
		b := queue[0]
		queue = queue[1:]
		visited++
		found := false
		ast.Inspect(b.node, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					found = true // proof 1: channel receive
				}
			case *ast.RangeStmt:
				if _, isChan := b.info.TypeOf(n.X).Underlying().(*types.Chan); isChan {
					found = true // proof 1: range over channel
				}
			case *ast.CallExpr:
				if isWaitGroupJoin(b.info, n) {
					found = true // proof 2
				} else if anyCtxArg(b.info, n.Args) {
					found = true // proof 3: context forwarded into a call
				} else if fn := analysis.StaticCallee(b.info, n); fn != nil {
					enqueueCallee(fn)
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isWaitGroupJoin matches Done or Wait method calls on sync.WaitGroup.
func isWaitGroupJoin(info *types.Info, call *ast.CallExpr) bool {
	fn, named, ok := analysis.MethodCall(info, call)
	if !ok || named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" &&
		(fn.Name() == "Done" || fn.Name() == "Wait")
}

// anyCtxArg reports whether args pass a context that something can
// cancel: any context.Context argument but a fresh root.
func anyCtxArg(info *types.Info, args []ast.Expr) bool {
	for _, a := range args {
		if call, ok := ast.Unparen(a).(*ast.CallExpr); ok && analysis.IsFreshRoot(info, call) {
			continue
		}
		if t := info.TypeOf(a); t != nil && analysis.IsContextContext(t) {
			return true
		}
	}
	return false
}

// ownerSet indexes //cavet:owner annotations by file and line.
type ownerSet map[string]map[int]bool

// covers reports an annotation on the goroutine's line or the line
// above it.
func (os ownerSet) covers(filename string, line int) bool {
	lines := os[filename]
	return lines != nil && (lines[line] || lines[line-1])
}

// collectOwners parses every //cavet:owner comment in the scoped
// packages. Malformed annotations (no owner, or no reason) are
// findings: an owner annotation without a named owner documents
// nothing.
func collectOwners(u *analysis.Unit) (ownerSet, []analysis.Finding) {
	os := make(ownerSet)
	var bad []analysis.Finding
	seen := make(map[string]bool)
	for _, pkg := range u.Pkgs {
		if !scopedPkgs[pkg.Name] {
			continue
		}
		for i, file := range pkg.Files {
			name := pkg.Filenames[i]
			if seen[name] {
				continue
			}
			seen[name] = true
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ownerPrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ownerPrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					pos := u.Position(c.Pos())
					if len(strings.Fields(rest)) < 2 {
						bad = append(bad, analysis.Finding{
							Pos:     pos,
							Message: "malformed owner annotation: want //cavet:owner <owner> <reason>",
						})
						continue
					}
					if os[pos.Filename] == nil {
						os[pos.Filename] = make(map[int]bool)
					}
					os[pos.Filename][pos.Line] = true
				}
			}
		}
	}
	return os, bad
}
