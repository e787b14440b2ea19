package rules

import (
	"go/ast"
	"go/types"

	"pbsim/internal/analysis"
)

// NoPanic forbids panic calls in library (non-main) packages.
//
// The fault-tolerant runner treats a panicking row as a failed row: it
// recovers the panic and converts it to a *runner.PanicError in the
// run's aggregate error. A library that panics on data errors bypasses
// the error path — it either kills the process or gets recovered far
// from the fault with the row's state lost. Failures
// must flow through error returns (pb.Response) so the runner's
// recovery path stays the sole recovery path. Invariant guards for
// programmer errors (impossible states) may be waived with
// //pbcheck:ignore nopanic <reason>.
var NoPanic = &analysis.Analyzer{
	Name: "nopanic",
	Doc:  "forbid panic(...) in library packages; failures must use error returns so runner recovery/retry semantics stay in control",
	Run:  runNoPanic,
}

func runNoPanic(pass *analysis.Pass) {
	if pass.Pkg.Name == "main" {
		return // binaries own their process; panicking there is their call
	}
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					pass.Reportf(call.Pos(), "panic in library code: return an error (pb.Response path) so the runner's panic-recovery and retry semantics stay the sole recovery path")
					return true
				}
			}
			checkPanickyCallee(pass, call)
			return true
		})
	}
}

// checkPanickyCallee is the interprocedural half: calling a module
// function that transitively contains an unwaived panic (per the fact
// engine) imports that panic into this package. The call site is only
// reported when the callee's own package is not being analyzed — an
// analyzed callee already reports the panic at its definition — so a
// panic laundered through a dependency-only package still surfaces,
// once, at the boundary where analyzed code invokes it.
func checkPanickyCallee(pass *analysis.Pass, call *ast.CallExpr) {
	fi := pass.Facts.Lookup(calleeObject(pass.TypesInfo(), call))
	if fi == nil || !fi.Facts().Has(analysis.FactMayPanic) {
		return
	}
	if pass.Facts.IsAnalyzed(fi.Pkg.Path) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s may panic (%s → %s); route the failure through an error return so runner recovery stays in control",
		fi.DisplayName(), fi.DisplayName(), fi.Why(analysis.FactMayPanic))
}
