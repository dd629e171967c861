// Package leasebalance flags machine leases taken from a Pool that can
// leak: a pool.GetContext (or GetNContext) whose result is never given
// back with Put (or PutAll) and never escapes the function. A leaked
// lease shrinks the pool until checkouts stall every caller — the failure
// mode is a stall, not a crash, which is exactly why it needs a
// mechanical check.
//
// The discharge engine lives in analysis.CheckBalance, shared with
// spanbalance; this package only supplies the Pool.GetContext/
// GetNContext matcher.
package leasebalance

import (
	"fmt"
	"go/ast"
	"go/types"

	"cacheautomaton/internal/analysis"
)

// Analyzer reports unbalanced pool leases.
func Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "leasebalance",
		Doc:  "every Pool.GetContext/GetNContext must be returned with Put/PutAll or escape the function",
		Run:  run,
	}
}

func run(u *analysis.Unit) []analysis.Finding {
	var fs []analysis.Finding
	spec := analysis.BalanceSpec{Begin: beginLease}
	for _, fi := range u.Functions() {
		fi := fi
		analysis.CheckBalance(fi.Pkg, fi.Decl, spec, func(n ast.Node, desc string) {
			fs = append(fs, analysis.Finding{
				Pos: u.Position(n.Pos()),
				Message: fmt.Sprintf("lease from %s is never returned with Put/PutAll and does not escape %s; a leaked lease permanently shrinks the pool",
					desc, fi.Decl.Name.Name),
			})
		})
	}
	return fs
}

// beginLease matches GetContext/GetNContext method calls on a type named
// Pool — the only checkout forms the pool has.
// Put/PutAll are not ends on the lease value itself (they are methods on
// the pool taking the lease as an argument), so the generic
// passed-to-a-call escape covers them.
func beginLease(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, named, isMethod := analysis.MethodCall(info, call)
	if !isMethod || named == nil || named.Obj().Name() != "Pool" {
		return "", false
	}
	switch fn.Name() {
	case "GetContext", "GetNContext":
		return "Pool." + fn.Name(), true
	}
	return "", false
}
