package analysis

import (
	"go/ast"
	"go/types"
	"runtime"
	"sync"
)

// This file is the shared summary layer: one function index and one
// static callgraph, built once per Unit and shared by every analyzer.
// Before it existed each analyzer re-walked pkg→file→decl on its own
// (and lockorder additionally rebuilt the whole tree once per fixpoint
// pass); now the walk happens once and the dataflow analyzers
// (goroutinelife, singleattempt, seamcover) ask reachability questions
// against the same graph.
//
// Functions are keyed by types.Func.FullName(), not object identity:
// the loader typechecks a package's importable variant and its
// test-augmented variant separately, so the same source function can be
// represented by two distinct *types.Func objects. Names are stable
// across variants; identities are not.

// FuncInfo is one declared function or method with its enclosing
// package variant.
type FuncInfo struct {
	Pkg  *Pkg
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// FullName returns the types.Func full name (the callgraph key).
func (fi *FuncInfo) FullName() string { return fi.Obj.FullName() }

// Functions returns every function and method declaration in the unit
// (bodies present), in deterministic package/file/decl order. The index
// is built once and cached; safe for concurrent analyzers.
func (u *Unit) Functions() []*FuncInfo {
	u.funcsOnce.Do(func() {
		for _, pkg := range u.Pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if obj == nil {
						continue
					}
					u.funcs = append(u.funcs, &FuncInfo{Pkg: pkg, Decl: fd, Obj: obj})
				}
			}
		}
	})
	return u.funcs
}

// EachFile visits every parsed source file with its package variant and
// filename. Files are visited exactly once (the loader assigns each
// file to exactly one analyzable variant).
func (u *Unit) EachFile(visit func(pkg *Pkg, file *ast.File, filename string)) {
	for _, pkg := range u.Pkgs {
		for i, file := range pkg.Files {
			visit(pkg, file, pkg.Filenames[i])
		}
	}
}

// CallEdge is one static call site: caller and callee by full name,
// plus the syntactic call in the caller's package.
type CallEdge struct {
	Caller, Callee string
	Call           *ast.CallExpr
	Pkg            *Pkg
}

// CallGraph is the unit's static call graph over in-module declared
// functions. Dynamic dispatch (interface calls, closures bound to
// variables, function values) is not resolved — analyzers that need
// soundness against those must treat absent edges conservatively.
type CallGraph struct {
	// ByName maps a full name to its declaration.
	ByName map[string]*FuncInfo
	// Callers indexes the edges by callee.
	Callers map[string][]CallEdge
}

// CallGraph builds (once) and returns the unit's static call graph.
// Edge extraction parallelizes per function; the result is assembled
// deterministically. Safe for concurrent analyzers.
func (u *Unit) CallGraph() *CallGraph {
	u.cgOnce.Do(func() {
		funcs := u.Functions()
		g := &CallGraph{
			ByName:  make(map[string]*FuncInfo, len(funcs)),
			Callers: make(map[string][]CallEdge),
		}
		for _, fi := range funcs {
			// First declaration wins on the rare name collision between
			// package variants; analyzers only need one representative body.
			if _, ok := g.ByName[fi.FullName()]; !ok {
				g.ByName[fi.FullName()] = fi
			}
		}
		edges := make([][]CallEdge, len(funcs))
		var wg sync.WaitGroup
		sem := make(chan struct{}, maxParallel())
		for i, fi := range funcs {
			wg.Add(1)
			go func(i int, fi *FuncInfo) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				caller := fi.FullName()
				ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := StaticCallee(fi.Pkg.Info, call)
					if fn == nil {
						return true
					}
					if _, inModule := g.ByName[fn.FullName()]; inModule {
						edges[i] = append(edges[i], CallEdge{Caller: caller, Callee: fn.FullName(), Call: call, Pkg: fi.Pkg})
					}
					return true
				})
			}(i, fi)
		}
		wg.Wait()
		for _, es := range edges {
			for _, e := range es {
				g.Callers[e.Callee] = append(g.Callers[e.Callee], e)
			}
		}
		u.cg = g
	})
	return u.cg
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ReverseReachable returns every function from which some seed is
// reachable through static calls — the seeds themselves included.
// singleattempt uses it to mark "reaches a feed RPC".
func (g *CallGraph) ReverseReachable(seeds []string) map[string]bool {
	reach := make(map[string]bool)
	var queue []string
	for _, s := range seeds {
		if !reach[s] {
			reach[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Callers[cur] {
			if !reach[e.Caller] {
				reach[e.Caller] = true
				queue = append(queue, e.Caller)
			}
		}
	}
	return reach
}

// Fixpoint re-runs step until it reports no change or maxPasses is
// exhausted — the interprocedural summary loop lockorder pioneered,
// factored out for every dataflow analyzer that grows monotone
// per-function summaries.
func Fixpoint(maxPasses int, step func() (changed bool)) {
	for pass := 0; pass < maxPasses; pass++ {
		if !step() {
			return
		}
	}
}
