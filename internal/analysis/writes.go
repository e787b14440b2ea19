package analysis

// writes.go seeds the FactWritesState fact: the per-function "does
// this mutate anything outside its own frame" analysis behind the
// purity analyzer. The question splits into two parts:
//
//  1. WHERE does a write land? writeTarget walks an lvalue from the
//     outside in, tracking whether the path crosses an indirection
//     (pointer deref, pointer-field selector, slice/map element). A
//     write that never crosses one lands in a local or a parameter
//     copy and is invisible to the caller; a write to a package-level
//     variable is always an effect; a write that crosses an
//     indirection is an effect unless the base is a provably
//     locally-allocated variable.
//
//  2. WHICH variables are provably local allocations? ownedLocals is
//     a conservative greatest-fixpoint over the function's
//     assignments: a variable is "owned" when every value it is ever
//     assigned comes from a fresh allocation the function performed
//     itself (make, new, composite literals, append/slice chains over
//     owned values, nil, scalar literals). Anything else — parameters,
//     globals, call results, range elements — is assumed aliased.
//
// Channel operations (send, close) are effects in their own right
// when the channel is not owned: they are observable by any other
// goroutine holding the channel.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// writeScan is the per-function context for write-effect seeding.
type writeScan struct {
	info   *types.Info
	owned  map[*types.Var]bool
	params map[*types.Var]bool // parameters + receiver + named results
	recv   *types.Var          // the receiver, when the function is a method
}

// newWriteScan precomputes the owned-locals and parameter sets for one
// function declaration.
func newWriteScan(fi *FuncInfo) *writeScan {
	ws := &writeScan{
		info:   fi.Pkg.Info,
		params: make(map[*types.Var]bool),
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := ws.info.Defs[name].(*types.Var); ok {
					ws.params[v] = true
				}
			}
		}
	}
	if fi.Decl.Recv != nil {
		addFields(fi.Decl.Recv)
		for _, f := range fi.Decl.Recv.List {
			for _, name := range f.Names {
				if v, ok := ws.info.Defs[name].(*types.Var); ok {
					ws.recv = v
				}
			}
		}
	}
	addFields(fi.Decl.Type.Params)
	addFields(fi.Decl.Type.Results)
	ws.owned = ws.ownedLocals(fi.Decl.Body)
	return ws
}

// ownedLocals computes the set of variables that only ever hold memory
// this function allocated itself. Greatest fixpoint: start from every
// variable with at least one recorded initialization, then demote any
// whose assignments include a non-owning value until stable.
func (ws *writeScan) ownedLocals(body *ast.BlockStmt) map[*types.Var]bool {
	// sources[v] lists every expression ever assigned to v; a nil
	// entry records a zero-value declaration (var x []T), which owns
	// its (nil) value.
	sources := make(map[*types.Var][]ast.Expr)
	demoted := make(map[*types.Var]bool) // assigned in a tuple/range/other non-owning context
	record := func(id *ast.Ident, rhs ast.Expr) {
		v, ok := ws.info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = ws.info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		sources[v] = append(sources[v], rhs)
	}
	demote := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v := ws.varOf(id); v != nil {
				demoted[v] = true
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			} else {
				// Tuple assignment: call results are never owned.
				for _, lhs := range n.Lhs {
					demote(lhs)
				}
			}
		case *ast.GenDecl:
			if n.Tok != token.VAR {
				return true
			}
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				switch {
				case len(vs.Values) == 0:
					for _, name := range vs.Names {
						record(name, nil) // zero value: owned
					}
				case len(vs.Values) == len(vs.Names):
					for i, name := range vs.Names {
						record(name, vs.Values[i])
					}
				default:
					for _, name := range vs.Names {
						if v, ok := ws.info.Defs[name].(*types.Var); ok {
							demoted[v] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			// Key/value alias (or copy) the ranged container's
			// elements; treat as non-owning.
			if n.Key != nil {
				demote(n.Key)
			}
			if n.Value != nil {
				demote(n.Value)
			}
		case *ast.TypeSwitchStmt:
			// v := x.(type) aliases the switched value.
			if as, ok := n.Assign.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					demote(lhs)
				}
			}
		}
		return true
	})

	owned := make(map[*types.Var]bool, len(sources))
	for v := range sources {
		if !demoted[v] && !ws.params[v] {
			owned[v] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for v := range owned {
			for _, src := range sources[v] {
				if !ws.owningExpr(src, owned) {
					delete(owned, v)
					changed = true
					break
				}
			}
		}
	}
	return owned
}

// owningExpr reports whether e evaluates to memory the function
// allocated itself (under the current owned assumption), or to a value
// that cannot alias anything (literals, nil).
func (ws *writeScan) owningExpr(e ast.Expr, owned map[*types.Var]bool) bool {
	if e == nil {
		return true // zero-value declaration
	}
	switch t := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fun := ast.Unparen(t.Fun)
		if id, ok := fun.(*ast.Ident); ok {
			if b, ok := ws.info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make", "new":
					return true
				case "append":
					return len(t.Args) > 0 && ws.owningExpr(t.Args[0], owned)
				}
			}
		}
		return false
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			_, lit := ast.Unparen(t.X).(*ast.CompositeLit)
			return lit
		}
		return false
	case *ast.SliceExpr:
		return ws.owningExpr(t.X, owned)
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		if t.Name == "nil" {
			return true
		}
		if v := ws.varOf(t); v != nil {
			return owned[v]
		}
		return false
	default:
		return false
	}
}

func (ws *writeScan) varOf(id *ast.Ident) *types.Var {
	if v, ok := ws.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := ws.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// writeTarget classifies one lvalue (or mutated operand). indirect
// seeds the walk: true for operations that always write through a
// reference (map delete, channel close, copy's destination). It
// returns a human-readable description of the escaping write, or
// ok=false when the write provably stays inside the frame.
func (ws *writeScan) writeTarget(expr ast.Expr, indirect bool) (what string, ok bool) {
	e := ast.Unparen(expr)
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return ws.classifyBase(t, indirect)
		case *ast.SelectorExpr:
			// Package-qualified variable: pkg.V.
			if id, isID := ast.Unparen(t.X).(*ast.Ident); isID {
				if _, isPkg := ws.info.Uses[id].(*types.PkgName); isPkg {
					if v, isVar := ws.info.Uses[t.Sel].(*types.Var); isVar {
						return "assigns package-level " + id.Name + "." + v.Name(), true
					}
					return "", false
				}
			}
			if typ := ws.info.TypeOf(t.X); typ != nil {
				if _, isPtr := typ.Underlying().(*types.Pointer); isPtr {
					indirect = true
				}
			}
			e = t.X
		case *ast.StarExpr:
			indirect = true
			e = ast.Unparen(t.X)
		case *ast.IndexExpr:
			if typ := ws.info.TypeOf(t.X); typ != nil {
				switch typ.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					indirect = true
				}
			}
			e = ast.Unparen(t.X)
		case *ast.ParenExpr:
			e = t.X
		default:
			// Writes through a computed expression (call result, type
			// assertion, ...): the engine cannot see where they land.
			return "writes through a computed expression", true
		}
	}
}

// classifyBase decides the effect of a write whose lvalue path bottoms
// out at id, given whether the path crossed an indirection.
func (ws *writeScan) classifyBase(id *ast.Ident, indirect bool) (string, bool) {
	v := ws.varOf(id)
	if v == nil {
		return "", false // blank identifier or non-variable
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return "assigns package-level " + v.Pkg().Name() + "." + v.Name(), true
	}
	if !indirect {
		return "", false // writes a local (or a parameter's copy)
	}
	if ws.owned[v] {
		return "", false // memory this function allocated itself
	}
	if v == ws.recv {
		return "writes through receiver " + v.Name(), true
	}
	if ws.params[v] {
		return "writes through parameter " + v.Name(), true
	}
	return "writes memory aliased by " + v.Name(), true
}

// scanWrites walks one node for write effects, reporting each through
// report. It handles every mutation form the engine models:
// assignments, inc/dec, range-over with assignment, channel sends, and
// the mutating builtins (delete, close, copy).
func (ws *writeScan) scanWrites(n ast.Node, report func(pos token.Pos, what string)) {
	emit := func(pos token.Pos, expr ast.Expr, indirect bool) {
		if what, ok := ws.writeTarget(expr, indirect); ok {
			report(pos, what)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			emit(lhs.Pos(), lhs, false)
		}
	case *ast.IncDecStmt:
		emit(n.X.Pos(), n.X, false)
	case *ast.SendStmt:
		if what, ok := ws.writeTarget(n.Chan, true); ok {
			report(n.Arrow, "sends on "+describeChan(n.Chan, what))
		}
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			if n.Key != nil {
				emit(n.Key.Pos(), n.Key, false)
			}
			if n.Value != nil {
				emit(n.Value.Pos(), n.Value, false)
			}
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(n.Fun).(*ast.Ident)
		if !ok {
			return
		}
		b, ok := ws.info.Uses[id].(*types.Builtin)
		if !ok || len(n.Args) == 0 {
			return
		}
		switch b.Name() {
		case "delete":
			if what, ok := ws.writeTarget(n.Args[0], true); ok {
				report(n.Pos(), "deletes from a map that "+what)
			}
		case "close":
			if what, ok := ws.writeTarget(n.Args[0], true); ok {
				report(n.Pos(), "closes "+describeChan(n.Args[0], what))
			}
		case "copy":
			if what, ok := ws.writeTarget(n.Args[0], true); ok {
				report(n.Pos(), "copies into a slice that "+what)
			}
		}
	}
}

// describeChan renders a channel effect description from the target
// classification ("writes through parameter ch" -> "channel ch
// (caller-visible)").
func describeChan(expr ast.Expr, what string) string {
	return "channel " + types.ExprString(expr) + " (" + what + ")"
}
