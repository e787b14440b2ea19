package trace

import (
	"runtime"
	"sync"
)

// This file lets every run of one workload share one recording of its
// stream. A PB design replays the identical stream once per row (88
// rows per benchmark for Table 9), and generating an instruction costs
// several RNG draws, a geometric sample or two and a block walk;
// decoding a recorded one costs a few shifts. Replay records the next
// n instructions once per process, keyed by the workload and the
// stream position (the stream is deterministic from its origin, so the
// pair names the dynamic state), and every later generator at that
// position reads the recording instead of generating.

// tapeRec is one packed instruction: 8 bytes against Instr's 56. The
// PC is not stored: blocks are laid out back to back, so each
// instruction's PC follows from its predecessor's: the target of a
// taken control instruction, else the fall-through, PC+4 or CodeBase
// after the code's last instruction. A tape stores its first PC.
type tapeRec struct {
	// meta packs Class (bits 0-3), Taken (bit 4), Dep1 (bits 5-11),
	// Dep2 (bits 12-18; dependency distances are at most 64) and
	// whether the instruction ends the code, so that its fall-through
	// (and a Call's return address) is CodeBase (bit 19).
	meta uint32
	// payload is Addr - DataBase for a Load or Store, CompID for a
	// compute instruction, and the taken target's offset from CodeBase
	// for a control instruction.
	payload uint32
}

const (
	metaClass = 0xf
	metaTaken = 1 << 4
	metaDep   = 0x7f
	metaWrap  = 1 << 19
)

// pack encodes one instruction of a program whose code ends at end;
// Packed.Unpack decodes it. Only a control instruction is taken and
// only a compute instruction has a CompID, so the payload is the
// address of a load or store, else the target when taken, else the
// CompID (0 for a control instruction not taken).
func pack(in *Instr, end uint64) Packed {
	p := Packed{pc: uint32(in.PC - CodeBase)}
	p.meta = uint32(in.Class) | uint32(in.Dep1)<<5 | uint32(in.Dep2)<<12
	p.payload = in.CompID
	if in.PC+4 == end {
		p.meta |= metaWrap
	}
	if in.Class.IsMem() {
		p.payload = uint32(in.Addr - DataBase)
	} else if in.Taken {
		p.meta |= metaTaken
		p.payload = uint32(in.Target - CodeBase)
	}
	return p
}

// Packed is one instruction as the detailed core holds it: the tape's
// record plus the PC as an offset from CodeBase, 12 bytes against
// Instr's 56. Generator.NextPacked produces one; the accessors decode
// the fields a pipeline stage reads, and Unpack the whole instruction.
type Packed struct {
	pc uint32
	tapeRec
}

// Class returns the instruction's class.
//
//pbcheck:hotpath
func (p Packed) Class() Class { return Class(p.meta & metaClass) }

// PC returns the instruction's address.
//
//pbcheck:hotpath
func (p Packed) PC() uint64 { return CodeBase + uint64(p.pc) }

// Dep1 returns the first register-dependency back-distance (Instr.Dep1).
//
//pbcheck:hotpath
func (p Packed) Dep1() int32 { return int32(p.meta >> 5 & metaDep) }

// Dep2 returns the second register-dependency back-distance
// (Instr.Dep2).
//
//pbcheck:hotpath
func (p Packed) Dep2() int32 { return int32(p.meta >> 12 & metaDep) }

// Taken returns the actual outcome of a control instruction, false for
// any other class.
//
//pbcheck:hotpath
func (p Packed) Taken() bool { return p.meta&metaTaken != 0 }

// Target returns the target of a taken control instruction. It is
// meaningful only when Taken.
//
//pbcheck:hotpath
func (p Packed) Target() uint64 { return CodeBase + uint64(p.payload) }

// Addr returns the effective address of a Load or Store. It is
// meaningful only for those classes.
//
//pbcheck:hotpath
func (p Packed) Addr() uint64 { return DataBase + uint64(p.payload) }

// CompID returns the redundant-computation identity of a compute
// instruction, 0 for any other class.
//
//pbcheck:hotpath
func (p Packed) CompID() uint32 {
	if p.meta&metaClass < uint32(Load) { // the compute classes come first
		return p.payload
	}
	return 0
}

// FallThrough returns the address of the instruction after this one
// in the code layout: PC+4, or CodeBase after the code's last
// instruction. It is a Call's return address (Instr.Addr).
//
//pbcheck:hotpath
func (p Packed) FallThrough() uint64 {
	if p.meta&metaWrap != 0 {
		return CodeBase
	}
	return p.PC() + 4
}

// next returns the PC of the instruction after this one in the
// stream: the taken target, else the fall-through.
func (p Packed) next() uint64 {
	if p.Taken() {
		return p.Target()
	}
	return p.FallThrough()
}

// Unpack returns the instruction as Next returns it.
//
//pbcheck:hotpath
func (p Packed) Unpack() Instr {
	in := Instr{PC: p.PC(), Class: p.Class(), Dep1: p.Dep1(), Dep2: p.Dep2()}
	switch c := in.Class; {
	case c.IsMem():
		in.Addr = p.Addr()
	case c.IsControl():
		if p.Taken() {
			in.Taken, in.Target = true, p.Target()
		}
		if c == Call {
			in.Addr = p.FallThrough()
		}
	default:
		in.CompID = p.payload
	}
	return in
}

// tape is one recorded stream segment. It is immutable once recorded
// and read by any number of generators at once.
type tape struct {
	start int64  // stream position of recs[0]
	pc    uint64 // recs[0]'s PC
	recs  []tapeRec
	end   Snapshot // the dynamic state after the last record
}

// workloadTapes is one workload's tapes, keyed by the stream span
// they cover. The memo evicts whole workloads, never a single tape: a
// sampled row replays every region group of its schedule in turn, so
// evicting one group's tape to make room for the next would record
// each group again on every row.
type workloadTapes struct {
	params  Params
	entries map[tapeSpan]*tapeEntry
	views   map[tapeSpan]*refsEntry
	recs    int64 // records the entries hold or will hold, views charged as n each
}

// tapeSpan names a requested tape: the stream position it starts at
// (the stream is deterministic from its origin, so the position names
// the dynamic state) and the length asked for.
type tapeSpan struct{ start, n int64 }

type tapeEntry struct {
	n    int64 // records to tape: the request, clamped to the workload's cap
	once sync.Once
	t    *tape
}

// refsEntry is the shared reference view of one taped window (Refs).
type refsEntry struct {
	once sync.Once
	v    *Refs
}

// maxWorkloadRecs caps one workload's tapes at 8 MiB of records. A
// request past the cap is taped up to it and continues live; once the
// cap is reached, later requests for the workload play live.
const maxWorkloadRecs = 1 << 20

// memoWorkloads bounds how many workloads the memo holds: one per
// worker that may be simulating (GOMAXPROCS, the default worker
// count) plus one, so that a worker moving on to its next benchmark
// evicts the one it left rather than one still in use. In-memory
// suites run benchmark-major, so their workers share one or two
// benchmarks; dist workers each walk units from their own starting
// point, one benchmark each. An evicted tape lives on only while a
// generator still replays it.
func memoWorkloads() int { return runtime.GOMAXPROCS(0) + 1 }

// tapes is the process-wide memo, most recently used workload first.
var tapes struct {
	mu        sync.Mutex
	workloads []*workloadTapes
}

// tapeFor returns the memo entry for a tape of n records of workload
// p from stream position start, creating it on a miss, or nil when
// the workload's cap leaves no room for it.
func tapeFor(p Params, start, n int64) *tapeEntry {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	w := workloadFor(p)
	span := tapeSpan{start: start, n: n}
	if e, ok := w.entries[span]; ok {
		return e
	}
	n = min(n, maxWorkloadRecs-w.recs)
	if n <= 0 {
		return nil
	}
	e := &tapeEntry{n: n}
	w.entries[span] = e
	w.recs += n
	return e
}

// refsFor returns the memo entry for the view of the n instructions
// of workload p from stream position start, creating it on a miss, or
// nil when the workload's cap leaves no room for it. A view is charged
// as n records, a tape's 8 bytes an instruction: it holds fewer.
func refsFor(p Params, start, n int64) *refsEntry {
	tapes.mu.Lock()
	defer tapes.mu.Unlock()
	w := workloadFor(p)
	span := tapeSpan{start: start, n: n}
	if e, ok := w.views[span]; ok {
		return e
	}
	if n > maxWorkloadRecs-w.recs {
		return nil
	}
	e := &refsEntry{}
	w.views[span] = e
	w.recs += n
	return e
}

// workloadFor returns p's tapes, moved to the front of the memo,
// creating them (and evicting the least recently used workloads beyond
// memoWorkloads) on a miss. The caller holds tapes.mu.
func workloadFor(p Params) *workloadTapes {
	ws := tapes.workloads
	for i, w := range ws {
		if w.params == p {
			copy(ws[1:i+1], ws[:i])
			ws[0] = w
			return w
		}
	}
	w := &workloadTapes{params: p, entries: make(map[tapeSpan]*tapeEntry), views: make(map[tapeSpan]*refsEntry)}
	if keep := memoWorkloads() - 1; len(ws) > keep {
		clear(ws[keep:])
		ws = ws[:keep]
	}
	ws = append(ws, nil)
	copy(ws[1:], ws)
	ws[0] = w
	tapes.workloads = ws
	return w
}

// Replay makes the generator's next n instructions come from the
// shared tape for this workload and stream position, recording it
// from the current state on first use. The stream is unchanged: past
// the tape's end Next resumes live generation exactly where the
// recording stopped, and Snapshot, Restore and Reset work anywhere.
// Callers pass the number of instructions the run commits; the few
// the pipeline fetches beyond them are packed live into the CPU's
// ring (NextPacked past the tape's end).
func (g *Generator) Replay(n int64) {
	g.catchUp()
	if n <= 0 {
		return
	}
	e := tapeFor(g.prog.p, g.seq, n)
	if e == nil {
		return
	}
	e.once.Do(func() { e.t = g.record(e.n) })
	g.tape, g.tapePC = e.t, e.t.pc
}

// record tapes the next n instructions from the generator's current
// state on a copy, leaving the generator itself where it is.
func (g *Generator) record(n int64) *tape {
	r := g.prog.newGenerator()
	s := g.Snapshot()
	r.load(&s)
	t := &tape{start: g.seq, recs: make([]tapeRec, n)}
	var p Packed
	for i := range t.recs {
		r.NextPacked(&p)
		if i == 0 {
			t.pc = p.PC()
		}
		t.recs[i] = p.tapeRec
	}
	t.end = r.Snapshot()
	return t
}

// catchUp detaches a tape mid-replay. While a tape plays, the live
// state stays at the tape's start, so catchUp walks it forward to the
// current position.
func (g *Generator) catchUp() {
	t := g.tape
	if t == nil {
		return
	}
	pos := g.seq
	g.tape, g.seq = nil, t.start
	g.Skip(pos - t.start)
}

// codeEnd returns the address just past the program's last
// instruction.
func (pr *program) codeEnd() uint64 {
	last := pr.blocks[len(pr.blocks)-1]
	return last.startPC + uint64(last.bodyLen+1)*4
}
