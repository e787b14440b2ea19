package analysis

// facts.go is the interprocedural half of the framework: a call graph
// over every loaded package of the module plus a fixpoint fact
// propagation across its edges. Phase 1 (BuildFacts) runs before any
// analyzer: it indexes every function declaration in the universe
// (the analyzed packages AND every module package they transitively
// import — the loader keeps their syntax trees), resolves each call
// site, computes per-function seed facts, and propagates them to
// fixpoint. Phase 2 hands the resulting FactIndex to every Pass, so a
// rule can ask "does this callee, wherever it lives, transitively
// reach a wall-clock read / a panic / a heap allocation?" instead of
// pattern-matching the sink in the package under analysis.
//
// Call resolution is deliberately layered by confidence:
//
//   - static calls (pkg.F, recv.M with a concrete receiver) resolve to
//     exactly one module function and become call-graph edges;
//   - interface method calls on interfaces *defined in this module*
//     resolve by class-hierarchy analysis: every named type in the
//     universe that implements the interface contributes its method as
//     a callee (the closed-world assumption is sound for an internal/
//     module, which nothing outside the repository can implement);
//   - everything else — calls through function values, methods of
//     foreign interfaces, and calls into foreign (non-module) packages
//     other than the pure math/math/bits whitelist and the explicit
//     sink lists — is the sound bottom: the callee's behaviour is
//     unknown, recorded as FactUnknownCallee and propagated like any
//     other fact. Rules that must *prove* a property (hotalloc's
//     transitive 0-alloc) treat unknown as a finding; rules that
//     report *established* misbehaviour (determinism, nopanic) do not
//     report unknowns, mirroring the rest of the suite's
//     zero-false-positive bias.
//
// Suppressions participate in fact generation: a sink carrying a
// reasoned //pbcheck:ignore for the owning rule does not seed its
// fact. A waiver is a reviewed claim that the invariant holds at that
// site (an unreachable guard panic, a sanctioned exact comparison), so
// propagating the fact anyway would force every transitive caller to
// re-argue the same waiver.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Fact is one propagated per-function property.
type Fact uint8

const (
	// FactNondet marks functions that transitively reach a
	// nondeterminism sink: wall-clock reads, the global math/rand
	// source, or process-environment reads.
	FactNondet Fact = iota
	// FactMayPanic marks functions that transitively contain an
	// unwaived panic call.
	FactMayPanic
	// FactAllocates marks functions that transitively perform a
	// steady-state heap allocation (see the gen set in scanFunc).
	FactAllocates
	// FactUnknownCallee marks functions that transitively call code
	// whose behaviour the engine cannot see: function values, foreign
	// interface methods, or non-whitelisted foreign packages.
	FactUnknownCallee
	// FactWritesState marks functions that transitively mutate state
	// visible outside their own frame: package-level variables (of any
	// package), memory reached through a pointer receiver or
	// parameter, heap aliased by a non-locally-allocated variable, or
	// channel operations (send/close). Writes to locals — including
	// element writes into slices and maps the function provably
	// allocated itself (see ownedLocals) — carry no fact: they die
	// with the frame.
	FactWritesState

	numFacts
)

// A FactSet is a bit set of Facts.
type FactSet uint8

// Has reports whether f is in the set.
func (s FactSet) Has(f Fact) bool { return s&(1<<f) != 0 }

func (s *FactSet) add(f Fact) bool {
	if s.Has(f) {
		return false
	}
	*s |= 1 << f
	return true
}

// HotpathMarker is the comment marking a function as a hot path that
// the hotalloc rule must prove transitively allocation-free. It goes
// in the function's doc comment:
//
//	//pbcheck:hotpath
//	func (c *Cache) Access(addr uint64) bool { ... }
const HotpathMarker = "pbcheck:hotpath"

// PureMarker is the comment marking a function the purity analyzer
// must prove side-effect-free AND deterministic: no writes escaping
// its frame, no ambient-state reads, and no calls the engine cannot
// see through. It is the static form of the ground-truth contract
// "same corner, same value, any evaluation order":
//
//	//pbcheck:pure
//	func (s *Surface) Eval(levels []int8) float64 { ... }
const PureMarker = "pbcheck:pure"

// Rule names whose waivers cut fact generation. They live here rather
// than in the rules package because the engine must honor them while
// seeding facts, before any analyzer runs; the rules package asserts
// at registration time that its analyzers use the same names.
const (
	RuleDeterminism = "determinism"
	RuleNoPanic     = "nopanic"
	RuleHotAlloc    = "hotalloc"
	RulePurity      = "purity"
)

// A calleeEdge is one resolved call-graph edge, positioned at its
// (first) call site.
type calleeEdge struct {
	callee *types.Func
	pos    token.Pos
}

// FuncInfo is the engine's record for one declared function.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Hot marks a //pbcheck:hotpath function; HotPos is the marker
	// comment's position.
	Hot    bool
	HotPos token.Pos

	// Pure marks a //pbcheck:pure function; PurePos is the marker
	// comment's position.
	Pure    bool
	PurePos token.Pos

	facts FactSet
	// why holds, per fact, the human-readable chain that established
	// it: either the local sink ("time.Now") or a call chain
	// ("trace.Generator.Next → make").
	why [numFacts]string

	edges []calleeEdge
}

// Facts returns the function's propagated fact set.
func (fi *FuncInfo) Facts() FactSet { return fi.facts }

// Why returns the chain explaining how the function acquired f
// ("" when the fact is absent).
func (fi *FuncInfo) Why(f Fact) string { return fi.why[f] }

// DisplayName returns the short package-qualified name used in
// diagnostics: "trace.Generator.Next", "stats.Mean".
func (fi *FuncInfo) DisplayName() string {
	name := fi.Obj.Name()
	if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fi.Pkg.Name + "." + name
}

func (fi *FuncInfo) setFact(f Fact, why string) bool {
	if !fi.facts.add(f) {
		return false
	}
	fi.why[f] = why
	return true
}

// A FactIndex is the computed interprocedural state: every function of
// the universe with its propagated facts, in deterministic order.
type FactIndex struct {
	funcs   map[*types.Func]*FuncInfo
	ordered []*FuncInfo

	// orphans are //pbcheck:hotpath or //pbcheck:pure markers not
	// attached to any function declaration, keyed by package path.
	orphans map[string][]orphanMarker

	// analyzed is the set of package paths selected for reporting (as
	// opposed to being loaded only as dependencies); rules use it to
	// decide whether a misbehaving callee already reports at its own
	// definition.
	analyzed map[string]bool

	// sups tracks which waiver lines actually cut a fact during
	// seeding; the stale-waiver check in the driver consults it before
	// declaring a suppression dead.
	sups *suppressionIndex
}

// WaiverUsedAt reports whether the waiver for rule on the given line
// cut at least one fact during seeding.
func (x *FactIndex) WaiverUsedAt(file string, line int, rule string) bool {
	if x.sups == nil {
		return false
	}
	return x.sups.used[suppressionKey(file, line, rule)]
}

// Lookup resolves a types object (normally from Info.Uses at a call
// site) to the engine's record, or nil for anything that is not a
// declared module function.
func (x *FactIndex) Lookup(obj types.Object) *FuncInfo {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return x.funcs[fn]
}

// Funcs returns every indexed function of the package, in file/position
// order ("" selects the whole universe).
func (x *FactIndex) Funcs(pkgPath string) []*FuncInfo {
	if pkgPath == "" {
		return x.ordered
	}
	var out []*FuncInfo
	for _, fi := range x.ordered {
		if fi.Pkg.Path == pkgPath {
			out = append(out, fi)
		}
	}
	return out
}

// An orphanMarker is a function marker comment with no function.
type orphanMarker struct {
	pos    token.Pos
	marker string
}

// Orphans returns the positions of the named marker ("pbcheck:hotpath"
// or "pbcheck:pure") in the package that are not attached to a
// function declaration.
func (x *FactIndex) Orphans(pkgPath, marker string) []token.Pos {
	var out []token.Pos
	for _, o := range x.orphans[pkgPath] {
		if o.marker == marker {
			out = append(out, o.pos)
		}
	}
	return out
}

// IsAnalyzed reports whether the package is in the set selected for
// reporting (not merely loaded as a dependency of one).
func (x *FactIndex) IsAnalyzed(pkgPath string) bool { return x.analyzed[pkgPath] }

// pureForeign lists foreign packages whose functions are known to be
// deterministic, panic-free on valid input, and allocation-free:
// calling into them does not taint the caller with FactUnknownCallee.
var pureForeign = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// nondetSink reports whether obj is one of the ambient-state reads the
// determinism invariant forbids, returning its display name.
func nondetSink(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch obj.Pkg().Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			return "time." + obj.Name(), true
		}
	case "os":
		switch obj.Name() {
		case "Getenv", "LookupEnv", "Environ", "ExpandEnv":
			return "os." + obj.Name(), true
		}
	case "math/rand", "math/rand/v2":
		fn, ok := obj.(*types.Func)
		if ok && fn.Type().(*types.Signature).Recv() == nil && !globalRandConstructors[obj.Name()] {
			return "rand." + obj.Name(), true
		}
	}
	return "", false
}

// globalRandConstructors mirrors the determinism rule's allowance for
// explicitly seeded generators.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// suppressionIndex answers "is rule waived at this line" across the
// whole universe, with the same two-line coverage contract as
// applySuppressions. It additionally records which waiver lines
// actually fired, feeding the stale-waiver check.
type suppressionIndex struct {
	keys map[string]bool
	used map[string]bool
}

func newSuppressionIndex() *suppressionIndex {
	return &suppressionIndex{keys: make(map[string]bool), used: make(map[string]bool)}
}

func suppressionKey(file string, line int, rule string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", file, line, rule)
}

func (s *suppressionIndex) covered(pos token.Position, rule string) bool {
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		k := suppressionKey(pos.Filename, line, rule)
		if s.keys[k] {
			s.used[k] = true
			hit = true
		}
	}
	return hit
}

// BuildFacts runs phase 1 over the universe: indexing, call-graph
// construction, seed-fact scanning, and fixpoint propagation. known
// names the valid rules so waivers can cut fact generation.
func BuildFacts(universe []*Package, known map[string]bool) *FactIndex {
	x := &FactIndex{
		funcs:    make(map[*types.Func]*FuncInfo),
		orphans:  make(map[string][]orphanMarker),
		analyzed: make(map[string]bool),
	}
	b := &factBuilder{index: x, sups: newSuppressionIndex()}
	x.sups = b.sups

	pkgs := append([]*Package(nil), universe...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	for _, pkg := range pkgs {
		if pkg == nil || len(pkg.TypeErrors) > 0 {
			continue
		}
		b.pkgs = append(b.pkgs, pkg)
		sups, _ := scanSuppressions(pkg, known)
		for _, s := range sups {
			for rule := range s.rules {
				b.sups.keys[suppressionKey(s.file, s.line, rule)] = true
			}
		}
		b.collectTypes(pkg)
		b.collectFuncs(pkg)
	}

	for _, fi := range x.ordered {
		b.scanFunc(fi)
	}
	b.propagate()
	return x
}

type factBuilder struct {
	index *FactIndex
	sups  *suppressionIndex
	pkgs  []*Package
	// named lists every named (non-interface) type of the universe in
	// deterministic order, for class-hierarchy resolution of module
	// interface calls.
	named []*types.TypeName
}

// collectTypes gathers the universe's named types for CHA.
func (b *factBuilder) collectTypes(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					continue // skip aliases
				}
				tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
					continue
				}
				b.named = append(b.named, tn)
			}
		}
	}
}

// markerKind classifies a comment as one of the function markers the
// engine understands, or "".
func markerKind(c *ast.Comment) string {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	for _, marker := range []string{HotpathMarker, PureMarker} {
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return marker
		}
	}
	return ""
}

// collectFuncs indexes the package's function declarations and their
// hotpath/pure markers, and records orphaned markers.
func (b *factBuilder) collectFuncs(pkg *Package) {
	for _, file := range pkg.Files {
		// Marker comments claimed by a declaration's doc group.
		claimed := make(map[*ast.Comment]bool)
		markers := make(map[*ast.Comment]string)
		var order []*ast.Comment
		for _, group := range file.Comments {
			for _, c := range group.List {
				if kind := markerKind(c); kind != "" {
					markers[c] = kind
					order = append(order, c)
				}
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					switch markers[c] {
					case HotpathMarker:
						fi.Hot, fi.HotPos = true, c.Pos()
						claimed[c] = true
					case PureMarker:
						fi.Pure, fi.PurePos = true, c.Pos()
						claimed[c] = true
					}
				}
			}
			b.index.funcs[obj] = fi
			b.index.ordered = append(b.index.ordered, fi)
		}
		for _, m := range order {
			if !claimed[m] {
				b.index.orphans[pkg.Path] = append(b.index.orphans[pkg.Path],
					orphanMarker{pos: m.Pos(), marker: markers[m]})
			}
		}
	}
}

// addEdge records a deduplicated call edge.
func (fi *FuncInfo) addEdge(callee *types.Func, pos token.Pos) {
	for _, e := range fi.edges {
		if e.callee == callee {
			return
		}
	}
	fi.edges = append(fi.edges, calleeEdge{callee: callee, pos: pos})
}

// markUnknown seeds the unknown-callee bottom.
func (b *factBuilder) markUnknown(fi *FuncInfo, what string) {
	fi.setFact(FactUnknownCallee, what)
}

// scanFunc computes one function's seed facts and call edges. The walk
// includes nested function literals: their sinks and calls are
// attributed to the enclosing declaration (a closure's behaviour is
// observable wherever the closure escapes to, and the enclosing
// function is the sound place to anchor it).
func (b *factBuilder) scanFunc(fi *FuncInfo) {
	info := fi.Pkg.Info
	fset := fi.Pkg.Fset

	// Self-appends (x = append(x, ...)) are the steady-state slice
	// reuse idiom: growth amortizes to zero once capacity stabilizes,
	// which is exactly what the AllocsPerRun pins measure. Collect the
	// sanctioned append calls first; every other append is a growth
	// site.
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				selfAppends[call] = true
			}
		}
		return true
	})

	alloc := func(pos token.Pos, what string) {
		if b.sups.covered(fset.Position(pos), RuleHotAlloc) {
			return
		}
		fi.setFact(FactAllocates, what)
	}

	// Write effects. Mutations inside nested function literals are
	// attributed to the enclosing declaration, same as every other
	// fact; the owned-locals analysis never claims a literal's own
	// parameters, so those writes classify conservatively as escaping.
	ws := newWriteScan(fi)
	write := func(pos token.Pos, what string) {
		if b.sups.covered(fset.Position(pos), RulePurity) {
			return
		}
		fi.setFact(FactWritesState, what)
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		ws.scanWrites(n, write)
		switch n := n.(type) {
		case *ast.Ident:
			if sink, ok := nondetSink(info.Uses[n]); ok {
				if !b.sups.covered(fset.Position(n.Pos()), RuleDeterminism) {
					fi.setFact(FactNondet, sink)
				}
			}
		case *ast.FuncLit:
			alloc(n.Pos(), "function literal (closure capture)")
		case *ast.GoStmt:
			alloc(n.Pos(), "go statement (new goroutine)")
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				alloc(n.Pos(), "slice literal")
			case *types.Map:
				alloc(n.Pos(), "map literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					alloc(n.Pos(), "escaping composite literal (&T{...})")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n.X)) {
				alloc(n.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			b.scanCall(fi, n, selfAppends, alloc)
		}
		return true
	})
}

// scanCall classifies one call expression: builtin, conversion, static
// call, module-interface call (CHA), or unknown.
func (b *factBuilder) scanCall(fi *FuncInfo, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, alloc func(token.Pos, string)) {
	info := fi.Pkg.Info
	fset := fi.Pkg.Fset
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x). Interface boxing and string<->slice copies
	// allocate; every other conversion is free.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if types.IsInterface(target) && src != nil && !types.IsInterface(src) {
				alloc(call.Pos(), "interface boxing ("+types.ExprString(fun)+")")
			} else if isStringSliceConv(target, src) {
				alloc(call.Pos(), "string conversion")
			}
		}
		return
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "append":
				if !selfAppends[call] {
					alloc(call.Pos(), "append (growing a fresh slice)")
				}
			case "make":
				alloc(call.Pos(), "make")
			case "new":
				alloc(call.Pos(), "new")
			case "panic":
				if !b.sups.covered(fset.Position(call.Pos()), RuleNoPanic) {
					fi.setFact(FactMayPanic, "panic")
				}
			}
		case *types.Func:
			b.resolveStatic(fi, obj, call.Pos(), alloc)
		default:
			if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); !isLit {
				b.markUnknown(fi, "call through function value "+f.Name)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if types.IsInterface(recv) {
				b.resolveInterface(fi, recv, f.Sel.Name, call.Pos())
				return
			}
		}
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			b.resolveStatic(fi, obj, call.Pos(), alloc)
			return
		}
		b.markUnknown(fi, "call through function value "+types.ExprString(f))
	case *ast.FuncLit:
		// Immediately invoked literal: its body is walked as part of
		// this function, and the literal itself was counted as an
		// allocation by the FuncLit case.
	default:
		b.markUnknown(fi, "indirect call")
	}
}

// resolveStatic handles a call to a known function object: a module
// function becomes an edge, fmt seeds the allocation fact, the pure
// whitelist is free, and everything else is the unknown bottom.
func (b *factBuilder) resolveStatic(fi *FuncInfo, fn *types.Func, pos token.Pos, alloc func(token.Pos, string)) {
	if _, ok := b.index.funcs[fn]; ok {
		fi.addEdge(fn, pos)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	if pkg.Path() == "fmt" {
		alloc(pos, "fmt."+fn.Name())
		return
	}
	if sink, ok := nondetSink(fn); ok {
		// Already seeded by the Ident walk; recorded here only so the
		// sink name survives if the identifier path missed it.
		_ = sink
		return
	}
	if pureForeign[pkg.Path()] {
		return
	}
	b.markUnknown(fi, "calls "+pkg.Name()+"."+fn.Name()+" (outside the module)")
}

// resolveInterface performs class-hierarchy resolution for a method
// call on an interface value. Interfaces defined in this module admit
// a closed-world answer: every named type of the universe that
// implements them contributes its method as a callee. Foreign
// interfaces cannot be enumerated and resolve to the unknown bottom.
func (b *factBuilder) resolveInterface(fi *FuncInfo, recv types.Type, method string, pos token.Pos) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		b.markUnknown(fi, "interface call "+method)
		return
	}
	named, ok := types.Unalias(recv).(*types.Named)
	moduleIface := false
	if ok && named.Obj().Pkg() != nil {
		for _, pkg := range b.pkgs {
			if pkg.Types == named.Obj().Pkg() {
				moduleIface = true
				break
			}
		}
	}
	if !moduleIface {
		b.markUnknown(fi, "method "+method+" of a foreign interface")
		return
	}
	resolved := false
	for _, tn := range b.named {
		t := tn.Type()
		impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, tn.Pkg(), method)
		if m, ok := obj.(*types.Func); ok {
			if _, indexed := b.index.funcs[m]; indexed {
				fi.addEdge(m, pos)
				resolved = true
			}
		}
	}
	if !resolved {
		b.markUnknown(fi, "interface method "+method+" with no module implementation")
	}
}

// propagate runs the fixpoint: every fact a callee holds flows to its
// callers, with the why-chain extended one hop at a time. Iteration
// follows the deterministic function and edge order, so the chains —
// which appear verbatim in diagnostics — are byte-stable regardless of
// package-load order.
func (b *factBuilder) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fi := range b.index.ordered {
			for _, e := range fi.edges {
				callee := b.index.funcs[e.callee]
				for f := Fact(0); f < numFacts; f++ {
					if callee.facts.Has(f) && !fi.facts.Has(f) {
						fi.setFact(f, callee.DisplayName()+" → "+callee.why[f])
						changed = true
					}
				}
			}
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isStringSliceConv reports a string <-> []byte/[]rune conversion,
// which copies the backing store.
func isStringSliceConv(target, src types.Type) bool {
	if target == nil || src == nil {
		return false
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
			e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	if isStringType(target) && isByteOrRuneSlice(src) {
		return true
	}
	return isStringType(src) && isByteOrRuneSlice(target)
}
