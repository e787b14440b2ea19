package trace

import "slices"

// This file gives functional warming its view of the stream. Warming
// does nothing with a compute instruction, and every design row warms
// the same window with only its geometry differing, so Refs hands it
// what a window touches, column by column, instead of instruction by
// instruction: the sequential code runs the I-side fetches from, the
// data references and the control instructions. A window a shared
// tape covers gets one shared view, built once per process.

// run is a maximal stretch of sequential code in a window: len
// instructions at consecutive PCs. A taken control instruction to
// anywhere but its fall-through ends a run, and so does the code's
// last instruction, whose fall-through wraps to CodeBase. The runs
// partition the window in order, so a run's position is the sum of
// the lengths before it.
type run struct{ off, len uint32 }

// memRef is a load or store: its address and position.
type memRef struct{ off, pos uint32 }

// ctrlRef is a control instruction: its class, PC, taken target, and
// whether it ends the code (so that a Call's return address is
// CodeBase rather than PC+4).
type ctrlRef struct {
	pc, target uint32
	class      Class
	taken      bool
	wrap       bool
}

// Refs is the reference view of a window of the stream: what
// functional warming touches, in stream order within each column.
// Addresses are kept as 32-bit offsets from CodeBase and DataBase, as
// on a tape; Params.Validate keeps every offset within 32 bits. A view
// is immutable once built, except the one a caller lends Refs to build
// into.
type Refs struct {
	n     int64  // instructions in the window
	endPC uint64 // the PC of the instruction after the window
	runs  []run
	mem   []memRef
	ctrl  []ctrlRef
}

// RefsChunk bounds the window a view built live covers, so that
// warming any number of untaped instructions needs O(RefsChunk)
// memory.
const RefsChunk = 1 << 11

// minSharedRefs is the shortest window whose view is memoized: a
// shorter one costs less to build than its memo entry holds.
const minSharedRefs = 256

// Len returns the number of instructions in the window.
func (v *Refs) Len() int64 { return v.n }

// Runs returns the number of sequential code runs.
func (v *Refs) Runs() int { return len(v.runs) }

// Run returns run i: the PC of its first instruction and its length
// in instructions. The runs cover the window in order, so run i
// starts at the sum of the lengths of runs 0 to i-1.
//
//pbcheck:hotpath
func (v *Refs) Run(i int) (pc uint64, n uint32) {
	r := v.runs[i]
	return CodeBase + uint64(r.off), r.len
}

// Mems returns the number of loads and stores.
func (v *Refs) Mems() int { return len(v.mem) }

// Mem returns the address and position of load or store i.
//
//pbcheck:hotpath
func (v *Refs) Mem(i int) (addr uint64, pos uint32) {
	m := v.mem[i]
	return DataBase + uint64(m.off), m.pos
}

// Ctrls returns the number of control instructions.
func (v *Refs) Ctrls() int { return len(v.ctrl) }

// Ctrl returns control instruction i with the fields warming reads:
// Class, PC, Taken, Target when taken, and for a Call the return
// address in Addr. Its dependencies are not kept.
//
//pbcheck:hotpath
func (v *Refs) Ctrl(i int) Instr {
	c := v.ctrl[i]
	pc := CodeBase + uint64(c.pc)
	in := Instr{PC: pc, Class: c.class, Taken: c.taken}
	if c.taken {
		in.Target = CodeBase + uint64(c.target)
	}
	if c.class == Call {
		in.Addr = pc + 4
		if c.wrap {
			in.Addr = CodeBase
		}
	}
	return in
}

// Refs consumes up to n > 0 of the next instructions and returns the
// view of the window it consumed, Len() instructions long. When the
// attached tape covers all n, the view is the one every generator of
// the workload shares at this stream position: built once, under the
// workload's record cap, and evicted with its tapes. The generator
// then jumps past the window without decoding it. Otherwise the view
// is built live into buf, at most RefsChunk instructions of it, and
// the caller asks again for the rest.
func (g *Generator) Refs(n int64, buf *Refs) *Refs {
	if t := g.tape; t != nil && n >= minSharedRefs && g.seq-t.start+n <= int64(len(t.recs)) {
		if e := refsFor(g.prog.p, g.seq, n); e != nil {
			built := false
			e.once.Do(func() {
				var v Refs
				g.buildRefs(&v, n)
				e.v = v.clone()
				built = true
			})
			if !built {
				g.seq += n
				g.tapePC = e.v.endPC
			}
			return e.v
		}
	}
	g.buildRefs(buf, min(n, RefsChunk))
	return buf
}

// clone copies the view into columns of exactly its length, for the
// memo to hold.
func (v *Refs) clone() *Refs {
	c := *v
	c.runs, c.mem, c.ctrl = slices.Clone(v.runs), slices.Clone(v.mem), slices.Clone(v.ctrl)
	return &c
}

// buildRefs walks the next n instructions into v, replacing what it
// held. It reads them packed, so a taped window is copied from the
// tape's records without being decoded.
func (g *Generator) buildRefs(v *Refs, n int64) {
	*v = Refs{n: n, runs: v.runs[:0], mem: v.mem[:0], ctrl: v.ctrl[:0]}
	var p, last Packed
	for i := int64(0); i < n; i++ {
		g.NextPacked(&p)
		pos := uint32(i)
		if i > 0 && p.pc == last.pc+4 {
			v.runs[len(v.runs)-1].len++
		} else {
			v.runs = append(v.runs, run{off: p.pc, len: 1})
		}
		switch c := p.Class(); {
		case c.IsMem():
			v.mem = append(v.mem, memRef{off: p.payload, pos: pos})
		case c.IsControl():
			var target uint32
			if p.Taken() {
				target = p.payload
			}
			v.ctrl = append(v.ctrl, ctrlRef{pc: p.pc, target: target, class: c, taken: p.Taken(), wrap: p.meta&metaWrap != 0})
		}
		last = p
	}
	v.endPC = last.next()
}
