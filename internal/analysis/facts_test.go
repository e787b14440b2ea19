package analysis_test

import (
	"go/token"
	"go/types"
	"path/filepath"
	"testing"

	"pbsim/internal/analysis"
)

// factRules is the engine's waiver vocabulary for direct BuildFacts
// calls in these tests.
var factRules = map[string]bool{"determinism": true, "nopanic": true, "hotalloc": true}

// loadFactsUniverse loads the synthetic 3-package module
// (rules/testdata/facts/{sim,flow,clock}) the way the driver would:
// request one package, let imports pull in the rest.
func loadFactsUniverse(t *testing.T) (*analysis.Loader, []*analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("rules", "testdata", "facts", "sim"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	return loader, pkgs
}

// lookupFunc finds a function's FuncInfo by package-path suffix and
// name.
func lookupFunc(t *testing.T, x *analysis.FactIndex, pkgSuffix, name string) *analysis.FuncInfo {
	t.Helper()
	for _, fi := range x.Funcs("") {
		if fi.Obj.Name() == name && filepath.Base(fi.Pkg.Path) == pkgSuffix {
			return fi
		}
	}
	t.Fatalf("function %s.%s not in fact index", pkgSuffix, name)
	return nil
}

// TestFactPropagationAcrossPackages is the acceptance-criteria pin: a
// nondeterministic sink two call hops and one package boundary away
// must reach the caller, with the why-chain naming every hop. The
// same fixpoint must propagate mayPanic and allocates, leave pure
// chains fact-free, and honor //pbcheck:hotpath markers.
func TestFactPropagationAcrossPackages(t *testing.T) {
	loader, _ := loadFactsUniverse(t)
	x := analysis.BuildFacts(loader.Universe(), factRules)

	cases := []struct {
		pkg, fn string
		fact    analysis.Fact
		why     string
	}{
		{"clock", "Clock", analysis.FactNondet, "time.Now"},
		{"flow", "Helper", analysis.FactNondet, "clock.Clock → time.Now"},
		{"sim", "Caller", analysis.FactNondet, "flow.Helper → clock.Clock → time.Now"},
		{"clock", "Boom", analysis.FactMayPanic, "panic"},
		{"sim", "CallBoom", analysis.FactMayPanic, "flow.MayBoom → clock.Boom → panic"},
		{"clock", "Alloc", analysis.FactAllocates, "make"},
		{"sim", "Hot", analysis.FactAllocates, "flow.Allocates → clock.Alloc → make"},
	}
	for _, tc := range cases {
		fi := lookupFunc(t, x, tc.pkg, tc.fn)
		if !fi.Facts().Has(tc.fact) {
			t.Errorf("%s.%s: fact %v missing", tc.pkg, tc.fn, tc.fact)
			continue
		}
		if got := fi.Why(tc.fact); got != tc.why {
			t.Errorf("%s.%s why = %q, want %q", tc.pkg, tc.fn, got, tc.why)
		}
	}

	// Pure chains stay fact-free end to end.
	for _, name := range []string{"Pure"} {
		for _, pkg := range []string{"clock", "flow"} {
			fi := lookupFunc(t, x, pkg, name)
			for f := analysis.FactNondet; f <= analysis.FactUnknownCallee; f++ {
				if fi.Facts().Has(f) {
					t.Errorf("%s.%s unexpectedly has fact %v (%s)", pkg, name, f, fi.Why(f))
				}
			}
		}
	}
	clean := lookupFunc(t, x, "sim", "Clean")
	if clean.Facts().Has(analysis.FactAllocates) || clean.Facts().Has(analysis.FactNondet) {
		t.Errorf("sim.Clean should be fact-free, has why alloc=%q nondet=%q",
			clean.Why(analysis.FactAllocates), clean.Why(analysis.FactNondet))
	}

	// Hotpath markers attach to the right declarations.
	if !lookupFunc(t, x, "sim", "Hot").Hot {
		t.Error("sim.Hot is not marked hot")
	}
	if lookupFunc(t, x, "sim", "Caller").Hot {
		t.Error("sim.Caller should not be marked hot")
	}
}

// TestFactIndexLookup pins the Lookup contract: types.Func objects
// resolve to their FuncInfo, non-function objects resolve to nil.
func TestFactIndexLookup(t *testing.T) {
	loader, pkgs := loadFactsUniverse(t)
	x := analysis.BuildFacts(loader.Universe(), factRules)

	scope := pkgs[0].Types.Scope()
	fn, ok := scope.Lookup("Caller").(*types.Func)
	if !ok {
		t.Fatal("sim.Caller not in package scope")
	}
	fi := x.Lookup(fn)
	if fi == nil {
		t.Fatal("Lookup(sim.Caller) = nil")
	}
	if got := fi.DisplayName(); got != "sim.Caller" {
		t.Errorf("DisplayName = %q, want %q", got, "sim.Caller")
	}
	if x.Lookup(nil) != nil {
		t.Error("Lookup(nil) should be nil")
	}
	if x.Lookup(types.Universe.Lookup("len")) != nil {
		t.Error("Lookup(builtin len) should be nil")
	}
}

// TestFactsHonorWaivers pins the waiver-aware generation contract: a
// sink line covered by a reasoned //pbcheck:ignore for the owning
// rule seeds no fact, so transitive callers are not tainted — the
// reviewed claim cuts the whole chain, not just the one report.
func TestFactsHonorWaivers(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// The repository's own pipeline package: ROB.Push carries a
	// reasoned nopanic waiver on its guard panic.
	dir := filepath.Join(loader.Root, "internal", "sim", "pipeline")
	if _, err := loader.Load([]string{dir}); err != nil {
		t.Fatal(err)
	}
	x := analysis.BuildFacts(loader.Universe(), factRules)
	fi := lookupFunc(t, x, "pipeline", "Push")
	if fi.Facts().Has(analysis.FactMayPanic) {
		t.Errorf("ROB.Push carries mayPanic (%s) despite the reasoned waiver on its guard", fi.Why(analysis.FactMayPanic))
	}
	if !fi.Hot {
		t.Error("ROB.Push lost its //pbcheck:hotpath marker")
	}
}

// TestEnclosingFunc pins the enclosing-function resolution a finding's
// position-independent identity depends on.
func TestEnclosingFunc(t *testing.T) {
	_, pkgs := loadFactsUniverse(t)
	pkg := pkgs[0]
	var callerPos token.Pos
	for _, fi := range analysis.BuildFacts([]*analysis.Package{pkg}, factRules).Funcs(pkg.Path) {
		if fi.Obj.Name() == "Caller" {
			callerPos = fi.Decl.Body.Pos()
		}
	}
	if !callerPos.IsValid() {
		t.Fatal("no position for sim.Caller body")
	}
	if got := pkg.EnclosingFunc(callerPos); got != "Caller" {
		t.Errorf("EnclosingFunc(inside Caller) = %q, want %q", got, "Caller")
	}
	if got := pkg.EnclosingFunc(token.NoPos); got != "" {
		t.Errorf("EnclosingFunc(NoPos) = %q, want \"\"", got)
	}
}
