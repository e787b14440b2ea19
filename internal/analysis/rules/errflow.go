package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/flow"
)

// ErrFlow is the path-sensitive companion to ErrDiscard. ErrDiscard
// catches errors dropped at the call site (`_ = f()`, bare `f()`);
// ErrFlow follows the assigned variable through the CFG and catches
// the two shapes the compiler's unused-variable check cannot see:
//
//   - OVERWRITE: an error is assigned and, on at least one path, a
//     second assignment lands on the same variable before anything
//     reads the first — the first failure is silently replaced;
//   - ABANDONED: an error is assigned, read on some path (so the
//     compiler is satisfied), but on at least one other path the
//     function returns without ever looking at it.
//
// Both reports anchor at the ORIGINAL assignment and name the callee,
// never a line number, so their identities survive position
// shuffles. Only function-local variables and named results are
// tracked; any variable that appears inside a nested function
// literal or has its address taken is excluded outright (a closure or
// alias may read it at any time), keeping the rule on the
// zero-false-positive side of every aliasing question.
var ErrFlow = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "path-sensitive error tracking: an assigned error must not be overwritten or abandoned on any path before something checks it",
	Run:  runErrFlow,
}

// errPending records one unchecked error-producing assignment.
type errPending struct {
	pos token.Pos // the assigned identifier, for reporting
	src string    // callee text ("json.Unmarshal")
}

// errState is the dataflow state: reachability plus the set of
// variables holding an unchecked error, each with its origin.
type errState struct {
	reached bool
	pending map[*types.Var]errPending
}

func (s *errState) Join(other flow.State) flow.State {
	o := other.(*errState)
	if !s.reached {
		return o
	}
	if !o.reached {
		return s
	}
	out := &errState{reached: true, pending: make(map[*types.Var]errPending, len(s.pending)+len(o.pending))}
	for v, p := range s.pending {
		out.pending[v] = p
	}
	for v, p := range o.pending {
		if cur, ok := out.pending[v]; !ok || p.pos < cur.pos {
			out.pending[v] = p
		}
	}
	return out
}

func (s *errState) Equal(other flow.State) bool {
	o := other.(*errState)
	if s.reached != o.reached || len(s.pending) != len(o.pending) {
		return false
	}
	for v, p := range s.pending {
		if op, ok := o.pending[v]; !ok || op != p {
			return false
		}
	}
	return true
}

// errScope is the per-function context.
type errScope struct {
	info    *types.Info
	tracked map[*types.Var]bool // locals + named results, minus exclusions
	results map[*types.Var]bool // named results (read by naked returns)
}

// errProblem solves forward over the scope's CFG.
type errProblem struct {
	scope *errScope
}

func (p *errProblem) Boundary() flow.State { return &errState{reached: true} }
func (p *errProblem) Bottom() flow.State   { return &errState{} }
func (p *errProblem) Backward() bool       { return false }

func (p *errProblem) Transfer(b *flow.Block, in flow.State) flow.State {
	return p.scope.applyBlock(b, in.(*errState), nil)
}

// applyBlock runs one block's nodes over a copy of st. When report is
// non-nil (the post-fixpoint pass), overwrite defects fire.
func (sc *errScope) applyBlock(b *flow.Block, st *errState, report func(p errPending, v *types.Var)) *errState {
	if !st.reached || len(b.Nodes) == 0 {
		return st
	}
	out := &errState{reached: true, pending: make(map[*types.Var]errPending, len(st.pending))}
	for v, p := range st.pending {
		out.pending[v] = p
	}
	for _, node := range b.Nodes {
		sc.applyNode(node, out, report)
	}
	return out
}

// applyNode interprets one atomic node: reads clear pending, writes to
// tracked variables report overwrites and may start a new pending.
func (sc *errScope) applyNode(node ast.Node, st *errState, report func(p errPending, v *types.Var)) {
	// Range head markers carry the whole loop body under them; by the
	// flow package contract only X/Key/Value belong to this block, and
	// X is its own node. Key/Value writes just clear pending (an error
	// ranged into existence has no single producing call to anchor).
	if rs, ok := node.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if e == nil {
				continue
			}
			if v := sc.trackedIdent(e); v != nil {
				delete(st.pending, v)
			}
		}
		return
	}

	// Writes this node performs, excluded from the read walk.
	writes := make(map[*ast.Ident]bool)
	var assign *ast.AssignStmt
	if as, ok := node.(*ast.AssignStmt); ok {
		assign = as
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}

	// Reads: every use of a tracked variable outside the write set
	// clears its pending — the error reached a check, a wrap, a log,
	// or a callee.
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || writes[id] {
			return true
		}
		if v, ok := sc.info.Uses[id].(*types.Var); ok && sc.tracked[v] {
			delete(st.pending, v)
		}
		return true
	})

	// Naked return reads every named result.
	if ret, ok := node.(*ast.ReturnStmt); ok && len(ret.Results) == 0 {
		for v := range sc.results {
			delete(st.pending, v)
		}
	}

	if assign == nil {
		return
	}

	// Writes: each tracked LHS with a pending error is an overwrite;
	// error-producing RHS calls start a new pending.
	producers := sc.errorProducers(assign)
	for i, lhs := range assign.Lhs {
		v := sc.trackedIdent(lhs)
		if v == nil {
			continue
		}
		if p, ok := st.pending[v]; ok {
			if report != nil {
				report(p, v)
			}
			delete(st.pending, v)
		}
		if src, ok := producers[i]; ok {
			st.pending[v] = errPending{pos: lhs.Pos(), src: src}
		}
	}
}

// trackedIdent resolves e to a tracked variable, or nil.
func (sc *errScope) trackedIdent(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := sc.info.Defs[id].(*types.Var)
	if !ok {
		if v, ok = sc.info.Uses[id].(*types.Var); !ok {
			return nil
		}
	}
	if !sc.tracked[v] {
		return nil
	}
	return v
}

// errorProducers maps LHS indices of the assignment to the callee text
// of the call producing an error there.
func (sc *errScope) errorProducers(as *ast.AssignStmt) map[int]string {
	out := make(map[int]string)
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return out
		}
		src := types.ExprString(call.Fun)
		for _, idx := range errorResults(sc.info, call) {
			if idx < len(as.Lhs) {
				out[idx] = src
			}
		}
		return out
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if isErrorType(sc.info.TypeOf(call)) {
				out[i] = types.ExprString(call.Fun)
			}
		}
	}
	return out
}

func runErrFlow(pass *analysis.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkErrFlowScope(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkErrFlowScope(pass, n.Type, n.Body)
			}
			return true
		})
	}
}

// checkErrFlowScope analyzes one function (or literal) body.
func checkErrFlowScope(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.TypesInfo()
	sc := &errScope{
		info:    info,
		tracked: make(map[*types.Var]bool),
		results: make(map[*types.Var]bool),
	}

	// Candidates: error-typed named results plus error-typed locals
	// declared in this scope but outside nested literals.
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok && isErrorType(v.Type()) {
					sc.tracked[v] = true
					sc.results[v] = true
				}
			}
		}
	}
	var collect func(n ast.Node)
	collect = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // its locals belong to its own scope
			}
			// The blank identifier gets a Defs object in := statements
			// but is an explicit discard, never a trackable variable.
			if id, ok := n.(*ast.Ident); ok && id.Name != "_" {
				if v, ok := info.Defs[id].(*types.Var); ok && isErrorType(v.Type()) && !v.IsField() {
					sc.tracked[v] = true
				}
			}
			return true
		})
	}
	collect(body)
	if len(sc.tracked) == 0 {
		return
	}

	// Exclusions: a variable captured by any nested literal or with
	// its address taken can be read through the alias at any point —
	// including after every position this analysis sees — so it is
	// not trackable without alias analysis.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						delete(sc.tracked, v)
					}
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						delete(sc.tracked, v)
					}
				}
			}
		}
		return true
	})
	if len(sc.tracked) == 0 {
		return
	}

	g := flow.Build(body)
	res := flow.Solve(g, &errProblem{scope: sc})

	type key struct {
		v   *types.Var
		pos token.Pos
	}
	reported := make(map[key]bool)

	// Overwrites, on converged in-states.
	for _, b := range g.Blocks {
		in := res.In[b].(*errState)
		sc.applyBlock(b, in, func(p errPending, v *types.Var) {
			k := key{v, p.pos}
			if reported[k] {
				return
			}
			reported[k] = true
			pass.Reportf(p.pos,
				"error from %s assigned to %s is overwritten before any check on at least one path; handle or explicitly discard the first error",
				p.src, v.Name())
		})
	}

	// Abandonments: pending at a non-panic exit predecessor.
	for _, pred := range g.Exit.Preds {
		if pred.Panics {
			continue
		}
		out := res.Out[pred].(*errState)
		if !out.reached {
			continue
		}
		pendings := make([]errPending, 0, len(out.pending))
		vars := make(map[errPending]*types.Var, len(out.pending))
		for v, p := range out.pending {
			pendings = append(pendings, p)
			vars[p] = v
		}
		sort.Slice(pendings, func(i, j int) bool { return pendings[i].pos < pendings[j].pos })
		for _, p := range pendings {
			v := vars[p]
			k := key{v, p.pos}
			if reported[k] {
				continue
			}
			reported[k] = true
			pass.Reportf(p.pos,
				"error from %s assigned to %s is never checked on at least one path to return; check it on every path or assign to _",
				p.src, v.Name())
		}
	}
}
