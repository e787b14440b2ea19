package trace

import "fmt"

// This file gives the generator the two capabilities sampled
// simulation needs: fast-forwarding over unmeasured gaps (Skip) and
// re-entering the stream at a recorded position without replaying the
// prefix (Snapshot/Restore). A sampled run measures a handful of
// scattered regions per configuration; restoring a per-region snapshot
// makes each measurement O(region) instead of O(stream position).

// Snapshot captures a generator's complete dynamic state at one stream
// position. It is immutable once taken and may be restored into any
// generator built from the same parameters, any number of times, from
// any goroutine holding the target generator.
type Snapshot struct {
	params    Params
	rngState  uint64
	zipfState uint64
	cur, pos  int
	seq       int64
	seqAddr   uint64
	visits    []uint32
	callStack []int
}

// Pos returns the stream position the snapshot was taken at: the
// number of instructions emitted before it.
func (s *Snapshot) Pos() int64 { return s.seq }

// Snapshot copies the generator's dynamic state. The generator keeps
// producing instructions unaffected. Taken mid-replay, it first brings
// the live state up to the current position and leaves the tape.
func (g *Generator) Snapshot() Snapshot {
	g.catchUp()
	s := Snapshot{
		params:    g.prog.p,
		rngState:  g.rng.state,
		zipfState: g.zipf.rng.state,
		cur:       g.cur,
		pos:       g.pos,
		seq:       g.seq,
		seqAddr:   g.seqAddr,
		visits:    make([]uint32, len(g.visits)),
		callStack: append([]int(nil), g.callStack...),
	}
	copy(s.visits, g.visits)
	return s
}

// Restore rewinds (or fast-forwards) the generator to a snapshot: the
// subsequent instruction sequence is bit-identical to the one the
// snapshotted generator produced from that position. The snapshot must
// come from a generator with identical parameters — equal Params imply
// the identical compiled program, so the dynamic state lines up.
func (g *Generator) Restore(s Snapshot) error {
	if g.prog.p != s.params {
		return fmt.Errorf("trace: snapshot is from a different workload parameterization")
	}
	g.load(&s)
	return nil
}

// load installs a snapshot's state, leaving any tape, without checking
// its parameters: Restore checks them, and a tape's end state comes
// from the same workload by construction.
//
//pbcheck:hotpath
func (g *Generator) load(s *Snapshot) {
	g.tape = nil
	g.rng.state = s.rngState
	g.zipf.rng.state = s.zipfState
	g.cur, g.pos = s.cur, s.pos
	g.seq = s.seq
	g.seqAddr = s.seqAddr
	copy(g.visits, s.visits)
	g.callStack = g.callStack[:0]
	g.callStack = append(g.callStack, s.callStack...)
}

// Skip fast-forwards the stream past n instructions without handing
// them to a consumer: the functional gap walk between detail-simulated
// regions. Skipping n instructions leaves the generator in exactly the
// state n Next calls would.
//
//pbcheck:hotpath
func (g *Generator) Skip(n int64) {
	for i := int64(0); i < n; i++ {
		g.Next()
	}
}
