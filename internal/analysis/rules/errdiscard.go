package rules

import (
	"go/ast"
	"go/types"

	"pbsim/internal/analysis"
)

// ErrDiscard forbids discarding error returns — by blank assignment
// (`_ = f()`, `v, _ := f()`), by bare call statements, or inside
// defer/go statements.
//
// The runner's whole fault-tolerance contract is that errors
// propagate: a row failure must reach the runner's aggregate error, a
// checkpoint write failure must fail the run rather than silently lose
// rows. A discarded error is a hole in that contract.
//
// Exemptions (documented, deliberately small):
//   - the fmt print family: terminal output is best-effort, and
//     buffered sinks surface real failures at Flush/Close, which this
//     rule does check;
//   - methods on strings.Builder and bytes.Buffer, which are
//     documented never to fail.
var ErrDiscard = &analysis.Analyzer{
	Name: "errdiscard",
	Doc:  "forbid discarded error returns via _ =, bare calls, or defer/go; errors must reach the runner's retry/propagation paths",
	Run:  runErrDiscard,
}

func runErrDiscard(pass *analysis.Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					checkBareCall(pass, info, call, "bare call")
				}
			case *ast.DeferStmt:
				checkBareCall(pass, info, n.Call, "defer")
			case *ast.GoStmt:
				checkBareCall(pass, info, n.Call, "go statement")
			case *ast.AssignStmt:
				checkBlankAssign(pass, info, n)
			}
			return true
		})
	}
}

// checkBareCall flags a call whose error result(s) vanish because the
// call appears as a statement (or inside defer/go).
func checkBareCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, how string) {
	if len(errorResults(info, call)) == 0 || exemptCallee(info, call) {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s is discarded (%s); handle it or suppress with a reason", types.ExprString(call.Fun), how)
}

// checkBlankAssign flags `_` positions that swallow an error result.
func checkBlankAssign(pass *analysis.Pass, info *types.Info, as *ast.AssignStmt) {
	isBlank := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "_"
	}
	// Tuple form: v, _ := f()
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || exemptCallee(info, call) {
			return
		}
		for _, i := range errorResults(info, call) {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				pass.Reportf(as.Lhs[i].Pos(), "error result of %s is discarded by blank assignment; handle it or suppress with a reason", types.ExprString(call.Fun))
			}
		}
		return
	}
	// Parallel form: _ = f(), a, _ = f(), g()
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || exemptCallee(info, call) {
			continue
		}
		if len(errorResults(info, call)) > 0 {
			pass.Reportf(as.Lhs[i].Pos(), "error result of %s is discarded by blank assignment; handle it or suppress with a reason", types.ExprString(call.Fun))
		}
	}
}

// exemptCallee reports whether the call's error is one the rule
// deliberately does not police.
func exemptCallee(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	if obj == nil {
		return false
	}
	if objPkgPath(obj) == "fmt" {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true // documented to never return an error
	}
	return false
}
