// Package analysis is a stdlib-only static-analysis framework for this
// module: a loader that parses and typechecks every package in the tree
// (go/parser + go/types, with the source importer for out-of-module
// dependencies), an Analyzer interface, and the //cavet:ignore
// suppression mechanism. cmd/cavet drives it over ./... and exits
// non-zero on findings.
//
// The framework exists for the same reason the paper's compiler has a
// constraint checker (§5): the serving stack's correctness rests on
// invariants — lock order, lease balance, deadline propagation, durable
// error handling — that no Go compiler check enforces. Each invariant
// gets a small project-specific analyzer, so refactors are rejected
// mechanically instead of depending on reviewers re-spotting the same
// bug classes. It is stdlib-only by design, like the rest of the module:
// pulling golang.org/x/tools in for six checkers would make the analysis
// layer the only dependency of an otherwise dependency-free tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer report at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding the way compilers do, so editors can jump
// to it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Pkg is one loaded, typechecked package.
type Pkg struct {
	// Path is the import path; Name the package name.
	Path, Name string
	// Files are the parsed sources, aligned with Filenames.
	Files     []*ast.File
	Filenames []string
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// Test marks the in-package test variant or an external _test package.
	Test bool
}

// Unit is everything one analysis run sees: the whole module, loaded
// under one FileSet so positions are comparable across packages.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Pkg

	// Cached shared-summary-layer state (see funcs.go). Built lazily and
	// exactly once; analyzers run concurrently against the same caches.
	funcsOnce sync.Once
	funcs     []*FuncInfo
	cgOnce    sync.Once
	cg        *CallGraph
}

// Analyzer is one named check over a Unit.
type Analyzer struct {
	// Name is the analyzer identifier used in findings and in
	// //cavet:ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// SkipTests excludes _test.go files (and external _test packages)
	// from this analyzer, for checks whose contract only covers
	// production code (metric naming, dropped production errors).
	SkipTests bool
	// Run reports the analyzer's findings over the unit.
	Run func(u *Unit) []Finding
}

// IsTestFile reports whether filename is a _test.go file.
func IsTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// Run applies every analyzer to the unit, filters findings through the
// //cavet:ignore directives found in the sources, appends a finding for
// every malformed or stale directive, and returns the result sorted by
// position.
//
// Analyzers execute concurrently (bounded by GOMAXPROCS) over the
// shared function index and callgraph; output order stays deterministic
// because findings are merged in analyzer order and sorted at the end.
func Run(u *Unit, analyzers []*Analyzer) []Finding {
	perAnalyzer := make([][]Finding, len(analyzers))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perAnalyzer[i] = a.Run(u)
		}(i, a)
	}
	wg.Wait()
	var all []Finding
	for i, a := range analyzers {
		for _, f := range perAnalyzer[i] {
			if a.SkipTests && IsTestFile(f.Pos.Filename) {
				continue
			}
			if f.Analyzer == "" {
				f.Analyzer = a.Name
			}
			all = append(all, f)
		}
	}
	dirs, bad := collectIgnores(u)
	kept := all[:0]
	for _, f := range all {
		if !dirs.suppresses(f) {
			kept = append(kept, f)
		}
	}
	kept = append(kept, bad...)
	kept = append(kept, dirs.stale(analyzers)...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// Position resolves a token.Pos against the unit's FileSet.
func (u *Unit) Position(p token.Pos) token.Position { return u.Fset.Position(p) }

// Deref strips one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedOf returns the named type behind t (through one pointer), or nil.
func NamedOf(t types.Type) *types.Named {
	n, _ := Deref(t).(*types.Named)
	return n
}

// TypeClass renders a named type as "pkgname.TypeName" (package name,
// not path: the lock-order table and messages stay readable, and
// synthetic test modules can reproduce production classes).
func TypeClass(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// MethodCall resolves call as a method call: the method object and the
// receiver's named type (through one pointer). ok is false for ordinary
// function calls, interface calls included (those still return the
// *types.Func with named == nil when the receiver is an interface).
func MethodCall(info *types.Info, call *ast.CallExpr) (fn *types.Func, named *types.Named, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return nil, nil, false
	}
	fn, _ = s.Obj().(*types.Func)
	if fn == nil {
		return nil, nil, false
	}
	return fn, NamedOf(s.Recv()), true
}

// StaticCallee resolves call to the *types.Func it statically invokes:
// a package-level function, a method on a concrete type, or nil for
// interface calls, closures bound to variables, and built-ins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if s.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := s.Obj().(*types.Func)
			if fn != nil && fn.Type().(*types.Signature).Recv() != nil {
				if _, isIface := Deref(s.Recv()).Underlying().(*types.Interface); isIface {
					return nil // dynamic dispatch
				}
			}
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn // qualified package function
	}
	return nil
}

// HasMethod reports whether t (or *t) has a method called name, looking
// through embedding.
func HasMethod(t types.Type, name string) bool {
	if NamedOf(t) == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(Deref(t)), true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

// IsContextContext reports whether t is context.Context.
func IsContextContext(t types.Type) bool {
	n := NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// IsFreshRoot reports whether call is context.Background() or
// context.TODO(): a context no caller can cancel.
func IsFreshRoot(info *types.Info, call *ast.CallExpr) bool {
	fn := StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO")
}

// ErrorResultIndex returns the index of the trailing error result of
// sig, or -1.
func ErrorResultIndex(sig *types.Signature) int {
	res := sig.Results()
	if res.Len() == 0 {
		return -1
	}
	last := res.At(res.Len() - 1).Type()
	if named := NamedOf(last); named != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return res.Len() - 1
	}
	return -1
}
