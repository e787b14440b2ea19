package trace

// Hooks for the external tape tests.

// MaxWorkloadRecs is the cap on one workload's taped records.
const MaxWorkloadRecs = maxWorkloadRecs

// MemoWorkloads is the memo's bound on workloads held.
func MemoWorkloads() int { return memoWorkloads() }

// TapeOf returns the tape the generator is replaying, or nil.
func TapeOf(g *Generator) any {
	if g.tape == nil {
		return nil
	}
	return g.tape
}

// TapeLen returns the length of the tape the generator is replaying,
// or 0.
func TapeLen(g *Generator) int {
	if g.tape == nil {
		return 0
	}
	return len(g.tape.recs)
}

// MemoLen returns the number of workloads the memo holds.
func MemoLen() int {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	return len(tapes.workloads)
}
