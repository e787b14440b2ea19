// Package rules holds the project-specific analyzers that encode this
// repository's reproducibility invariants: determinism of the core
// simulation packages, panic-free library code, tolerance-based float
// comparison, error discipline, and context propagation. Each rule
// documents the invariant it protects; see the package-level README
// section "Static analysis" for the rationale.
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"pbsim/internal/analysis"
)

// Suite returns every analyzer pbcheck runs, in stable order: the
// pbcheck command, -list, -rules and the tests all use it. All is the
// benchmark's view of the same list, with the retired rules kept in
// their old slots.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		NoPanic,
		FloatEq,
		ErrDiscard,
		CtxFlow,
		HotAlloc,
		LeakyGo,
		Purity,
		LockFlow,
		ErrFlow,
	}
}

// The fact engine honors waivers for these rules while seeding facts
// (a waived sink generates no fact), so the names it hardcodes must
// stay in lockstep with the analyzers'.
func init() {
	for name, a := range map[string]*analysis.Analyzer{
		analysis.RuleDeterminism: Determinism,
		analysis.RuleNoPanic:     NoPanic,
		analysis.RuleHotAlloc:    HotAlloc,
		analysis.RulePurity:      Purity,
	} {
		if a.Name != name {
			//pbcheck:ignore nopanic init-time invariant on our own constants; unreachable unless a rule is renamed without updating the engine
			panic("rules: analyzer " + a.Name + " out of sync with engine rule name " + name)
		}
	}
}

// All returns Suite with the retired rules locksafe, racecheck and
// chansafe kept in their old slots as analyzers that report nothing.
// Only the repository benchmark calls it: it derives its per-rule
// metric list, which BENCHMARK.json pins, from All. When the
// benchmark's list drops the retired rules, All goes too.
func All() []*analysis.Analyzer {
	retired := func(name string) *analysis.Analyzer {
		return &analysis.Analyzer{Name: name, Doc: "retired; reports nothing", Run: func(*analysis.Pass) {}}
	}
	return []*analysis.Analyzer{
		Determinism,
		NoPanic,
		FloatEq,
		ErrDiscard,
		CtxFlow,
		HotAlloc,
		retired("locksafe"),
		LeakyGo,
		Purity,
		LockFlow,
		ErrFlow,
		retired("racecheck"),
		retired("chansafe"),
	}
}

// Select returns the analyzers whose names appear in the
// comma-separated list, preserving suite order; an empty list selects
// all. Unknown names are returned separately for the CLI to report.
func Select(list string) (selected []*analysis.Analyzer, unknown []string) {
	if strings.TrimSpace(list) == "" {
		return Suite(), nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	for _, a := range Suite() {
		if want[a.Name] {
			selected = append(selected, a)
			delete(want, a.Name)
		}
	}
	for name := range want {
		unknown = append(unknown, name)
	}
	return selected, unknown
}

// pathHasSegment reports whether any slash-separated segment of an
// import path equals one of the names.
func pathHasSegment(path string, names map[string]bool) bool {
	for _, seg := range strings.Split(path, "/") {
		if names[seg] {
			return true
		}
	}
	return false
}

// calleeObject resolves the object a call expression invokes: a
// package-level function, a method, or a builtin. Returns nil for
// indirect calls through function values.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// objPkgPath returns the import path of the package obj belongs to,
// or "" for builtins and universe objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isErrorType reports whether t is exactly the built-in error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// errorResults returns, for a call expression, the indices of its
// results whose type is error (nil when the callee returns none).
func errorResults(info *types.Info, call *ast.CallExpr) []int {
	t := info.TypeOf(call)
	if t == nil {
		return nil
	}
	if tuple, ok := t.(*types.Tuple); ok {
		var idx []int
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	if isErrorType(t) {
		return []int{0}
	}
	return nil
}

// isFloat reports whether t's underlying type is float32 or float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
