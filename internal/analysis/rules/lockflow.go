package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/flow"
)

// LockFlow guards the sync primitives the concurrent runner, the obs
// metrics scopes and the trace program cache lean on. Lock bugs are
// timing-dependent, so tests rarely catch them; LockFlow runs a
// forward dataflow over the CFG and answers the questions that need
// actual paths:
//
//   - a lock still held on some path out of the function, including
//     one released on some branches but not on the one that falls off
//     the end;
//   - a second Lock() on a path where the mutex is *definitely* still
//     held (self-deadlock along that branch);
//   - an Unlock() on a path where the mutex is *definitely* not held
//     (runtime fatal error).
//
// The lattice tracks, per lock expression, the SET of possible hold
// depths {0, 1, 2+}; joins union the sets. Reports fire only on
// definite states — a depth set that excludes 0 for double-lock, the
// set {0} alone for unlock-before-lock — never on "maybe", so merged
// branches with correlated conditions cannot produce false positives.
// Deferred unlocks (directly or inside deferred closures) cover their
// lock expression on every exit path.
//
// Two order defects need no dataflow and are found by a source-order
// walk of the same scope: defer mu.Lock() (the classic typo for defer
// mu.Unlock()) and wg.Add after wg.Wait on the same WaitGroup, which
// races the Wait. Sync values copied by value are go vet's copylocks
// check.
var LockFlow = &analysis.Analyzer{
	Name: "lockflow",
	Doc:  "path-sensitive lock pairing: no exit path may leave a lock held, no path may re-lock a definitely-held mutex or unlock a definitely-free one; no defer mu.Lock(), no WaitGroup Add after Wait",
	Run:  runLockFlow,
}

const (
	depthFree uint8 = 1 << 0 // depth 0 possible
	depthOne  uint8 = 1 << 1 // depth 1 possible
	depthMany uint8 = 1 << 2 // depth >= 2 possible
)

// lockAcquire moves every possible depth up one level.
func lockAcquire(d uint8) uint8 {
	var out uint8
	if d&depthFree != 0 {
		out |= depthOne
	}
	if d&(depthOne|depthMany) != 0 {
		out |= depthMany
	}
	return out
}

// lockRelease moves every possible depth down one level. "2 or more"
// minus one is "1 or more", so depthMany smears into both upper bits.
func lockRelease(d uint8) uint8 {
	var out uint8
	if d&(depthFree|depthOne) != 0 {
		out |= depthFree
	}
	if d&depthMany != 0 {
		out |= depthOne | depthMany
	}
	return out
}

// A lockVal is one lock expression's abstract state.
type lockVal struct {
	depths uint8
	// pos is the earliest Lock call that can still be holding the
	// lock; exit-path reports anchor here and so name the acquisition,
	// not the leak site.
	pos    token.Pos
	recv   string // receiver expression text ("m.mu")
	method string // "Lock" or "RLock"
}

func definitelyHeld(d uint8) bool { return d != 0 && d&depthFree == 0 }
func definitelyFree(d uint8) bool { return d == depthFree }

// lockState is the dataflow state: reachability plus per-key depth
// sets. Keys are receiver text, with a mode suffix separating the
// read-side of an RWMutex from its write side.
type lockState struct {
	reached bool
	locks   map[string]lockVal
}

func (s *lockState) Join(other flow.State) flow.State {
	o := other.(*lockState)
	if !s.reached {
		return o
	}
	if !o.reached {
		return s
	}
	out := &lockState{reached: true, locks: make(map[string]lockVal, len(s.locks)+len(o.locks))}
	for k, v := range s.locks {
		out.locks[k] = v
	}
	for k, v := range o.locks {
		cur, ok := out.locks[k]
		if !ok {
			// Absent in s: that path never touched the lock, depth 0.
			v.depths |= depthFree
			out.locks[k] = v
			continue
		}
		cur.depths |= v.depths
		if v.pos.IsValid() && (!cur.pos.IsValid() || v.pos < cur.pos) {
			cur.pos = v.pos
		}
		out.locks[k] = cur
	}
	for k := range s.locks {
		if _, ok := o.locks[k]; !ok {
			cur := out.locks[k]
			cur.depths |= depthFree
			out.locks[k] = cur
		}
	}
	return out
}

func (s *lockState) Equal(other flow.State) bool {
	o := other.(*lockState)
	if s.reached != o.reached || len(s.locks) != len(o.locks) {
		return false
	}
	for k, v := range s.locks {
		ov, ok := o.locks[k]
		if !ok || ov.depths != v.depths || ov.pos != v.pos {
			return false
		}
	}
	return true
}

// A lockOp is one Lock/Unlock/RLock/RUnlock call inside a block, in
// evaluation order.
type lockOp struct {
	pos     token.Pos
	key     string
	recv    string
	method  string // Lock, Unlock, RLock, RUnlock
	acquire bool
}

// lockProblem solves over precomputed per-block ops.
type lockProblem struct {
	ops map[*flow.Block][]lockOp
}

func (p *lockProblem) Boundary() flow.State { return &lockState{reached: true} }
func (p *lockProblem) Bottom() flow.State   { return &lockState{} }
func (p *lockProblem) Backward() bool       { return false }

func (p *lockProblem) Transfer(b *flow.Block, in flow.State) flow.State {
	return applyLockOps(in.(*lockState), p.ops[b], nil)
}

// applyLockOps runs one block's ops over a copy of st. When report is
// non-nil this is the post-fixpoint diagnostics pass: definite
// double-locks and unlocks-of-free fire here, on the converged
// in-states.
func applyLockOps(st *lockState, ops []lockOp, report func(op lockOp, held bool)) *lockState {
	if !st.reached || len(ops) == 0 {
		return st
	}
	out := &lockState{reached: true, locks: make(map[string]lockVal, len(st.locks))}
	for k, v := range st.locks {
		out.locks[k] = v
	}
	for _, op := range ops {
		v, ok := out.locks[op.key]
		if !ok {
			v = lockVal{depths: depthFree, recv: op.recv, method: lockNameFor(op.method)}
		}
		if op.acquire {
			if report != nil && op.method == "Lock" && definitelyHeld(v.depths) {
				report(op, true)
			}
			v.depths = lockAcquire(v.depths)
			if !v.pos.IsValid() {
				v.pos = op.pos
			}
		} else {
			if report != nil && definitelyFree(v.depths) {
				report(op, false)
			}
			v.depths = lockRelease(v.depths)
			if v.depths == depthFree {
				v.pos = token.NoPos
			}
		}
		out.locks[op.key] = v
	}
	return out
}

// lockNameFor returns the acquire method for either side of a key.
func lockNameFor(method string) string {
	if method == "RLock" || method == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

func runLockFlow(pass *analysis.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockFlowScope(pass, n.Body)
				}
				return true // descend for nested literals
			case *ast.FuncLit:
				if !isDeferredClosure(file, n) {
					checkLockFlowScope(pass, n.Body)
				}
				return true
			}
			return true
		})
	}
}

// isDeferredClosure reports whether lit is the immediate operand of a
// defer statement: its body runs on the enclosing scope's exit and is
// summarized as deferred unlock coverage there, not analyzed as an
// independent scope.
func isDeferredClosure(file *ast.File, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			if inner, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok && inner == lit {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// syncMethod resolves a call to a method of a sync type, returning
// receiver text and method name.
func syncMethod(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

// syncMutexMethod resolves a call to a sync lock-family method,
// returning receiver text and method name.
func syncMutexMethod(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	recv, method, ok := syncMethod(info, call)
	if !ok {
		return "", "", false
	}
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return recv, method, true
	}
	return "", "", false
}

// checkSyncOrder reports the two order defects in one source-order
// walk of a scope. Nested function literals are scopes of their own,
// and deferred calls run at exit, so neither is walked.
func checkSyncOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo()
	waited := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			recv, method, ok := syncMethod(info, n.Call)
			if ok && (method == "Lock" || method == "RLock") {
				unlock := "Unlock"
				if method == "RLock" {
					unlock = "RUnlock"
				}
				pass.Reportf(n.Pos(), "defer %s.%s() acquires the lock on function exit; this is almost always a typo for defer %s.%s()",
					recv, method, recv, unlock)
			}
			return false
		case *ast.CallExpr:
			recv, method, ok := syncMethod(info, n)
			if ok && method == "Wait" {
				waited[recv] = true
			}
			if ok && method == "Add" && waited[recv] {
				pass.Reportf(n.Pos(), "%s.Add after %s.Wait races the Wait: a waiter may have already been released; call Add before starting the Wait",
					recv, recv)
			}
		}
		return true
	})
}

// lockKeyFor separates the read side of an RWMutex from its write
// side: RLock/RUnlock pair with each other, Lock/Unlock likewise.
func lockKeyFor(recv, method string) string {
	if method == "RLock" || method == "RUnlock" {
		return recv + "\x00R"
	}
	return recv
}

// checkLockFlowScope runs the dataflow over one function (or
// independent literal) body and reports the three definite defects.
func checkLockFlowScope(pass *analysis.Pass, body *ast.BlockStmt) {
	checkSyncOrder(pass, body)
	info := pass.TypesInfo()
	g := flow.Build(body)

	// Per-block op extraction. Nested function literals have their own
	// control flow (analyzed separately); deferred statements run at
	// exit and are summarized below; a RangeStmt node is the head
	// marker whose body lives in successor blocks.
	ops := make(map[*flow.Block][]lockOp, len(g.Blocks))
	anyOps := false
	for _, b := range g.Blocks {
		for _, node := range b.Nodes {
			if _, isRange := node.(*ast.RangeStmt); isRange {
				continue
			}
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					if recv, method, ok := syncMutexMethod(info, n); ok {
						ops[b] = append(ops[b], lockOp{
							pos:     n.Pos(),
							key:     lockKeyFor(recv, method),
							recv:    recv,
							method:  method,
							acquire: method == "Lock" || method == "RLock",
						})
						anyOps = true
					}
				}
				return true
			})
		}
	}
	if !anyOps {
		return
	}

	// Deferred unlock coverage: a deferred mu.Unlock() (directly or
	// inside a deferred closure) releases on every exit path, so keys
	// it covers are exempt from the held-at-exit check.
	deferred := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		collect := func(call *ast.CallExpr) {
			if recv, method, ok := syncMutexMethod(info, call); ok {
				if method == "Unlock" || method == "RUnlock" {
					deferred[lockKeyFor(recv, method)] = true
				}
			}
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					collect(call)
				}
				return true
			})
		} else {
			collect(d.Call)
		}
		return false
	})

	p := &lockProblem{ops: ops}
	res := flow.Solve(g, p)

	// In-path reports on converged states: double-lock of a definitely
	// held mutex, unlock of a definitely free one.
	for _, b := range g.Blocks {
		in := res.In[b].(*lockState)
		applyLockOps(in, ops[b], func(op lockOp, held bool) {
			if held {
				pass.Reportf(op.pos,
					"%s.Lock() on a path where %s is already held; this self-deadlocks — unlock first or restructure the branch",
					op.recv, op.recv)
			} else {
				pass.Reportf(op.pos,
					"%s.%s() on a path where %s is not held; this is a runtime fatal error — acquire the lock on every path that reaches this unlock",
					op.recv, op.method, op.recv)
			}
		})
	}

	// Held-at-exit: every non-panic path into Exit must have released
	// everything not covered by a deferred unlock. Reports anchor at
	// the acquisition site and deduplicate across exit predecessors.
	seen := make(map[string]bool)
	for _, pred := range g.Exit.Preds {
		if pred.Panics {
			continue
		}
		out := res.Out[pred].(*lockState)
		if !out.reached {
			continue
		}
		keys := make([]string, 0, len(out.locks))
		for k := range out.locks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := out.locks[k]
			if !definitelyHeld(v.depths) || deferred[k] || !v.pos.IsValid() {
				continue
			}
			dedupe := k + "\x00" + v.recv
			if seen[dedupe] {
				continue
			}
			seen[dedupe] = true
			pass.Reportf(v.pos,
				"%s.%s() is released on some paths but still held on at least one path out of the function; unlock on every path or defer the unlock",
				v.recv, v.method)
		}
	}
}
