package trace

import (
	"fmt"
	"math"
	"sync"
)

// Params statistically describes a synthetic workload. Every field is
// a program property, not a machine property: the same stream is
// replayed against every simulator configuration of an experiment.
type Params struct {
	// Seed selects the deterministic pseudo-random stream.
	Seed uint64

	// Mix holds relative weights for the non-control instruction
	// classes (IntALU..FPSqrt, Load, Store). Control instructions are
	// produced by the basic-block structure instead. Weights need not
	// sum to one.
	Mix [NumClasses]float64

	// NumBlocks is the number of static basic blocks; together with
	// AvgBlockLen it sets the hot-code footprint (4 bytes per
	// instruction), which determines I-cache and I-TLB stress.
	NumBlocks int
	// AvgBlockLen is the mean dynamic basic-block length in
	// instructions including the terminating control instruction, so
	// roughly 1/AvgBlockLen of instructions are branches.
	AvgBlockLen int
	// CallFraction is the probability that a block ends in a call
	// (and, symmetrically, that a block ends in a return), exercising
	// the return-address stack.
	CallFraction float64
	// PatternPeriod is the period of each static branch's repeating
	// taken/not-taken pattern. Short periods are learnable by a
	// two-level predictor.
	PatternPeriod int
	// Predictability is the fraction of static branches whose outcome
	// follows a deterministic periodic pattern (loop exits, regular
	// control flow) that a history-based predictor can learn. The
	// remaining branches are data-dependent: they follow their
	// dominant direction with probability BranchBias but carry
	// unlearnable per-instance noise.
	Predictability float64
	// FarJumpFrac is the fraction of static branches whose taken
	// target is uniform over the whole code rather than local. Far
	// jumps model phase changes and large-scale control flow; they
	// spread the instruction working set and stress the I-cache, BTB
	// and I-TLB.
	FarJumpFrac float64
	// BranchBias is the probability that a pattern bit equals the
	// branch's dominant direction. Real branches are heavily biased
	// (most are taken or not-taken more than 90% of the time), which
	// is what makes them predictable by two-bit counters; values near
	// 0.5 produce pattern-only branches that stress history-based
	// prediction. Zero selects the default of 0.9.
	BranchBias float64

	// WorkingSetBytes is the data footprint, determining D-cache, L2
	// and D-TLB stress.
	WorkingSetBytes uint64
	// TemporalFrac is the fraction of memory accesses that touch the
	// hot region (stack frames, hot globals): a skewed distribution
	// over the first min(WorkingSetBytes, 64 KB) of the data segment,
	// heavily concentrated near its base so that even a small data
	// cache captures most of it.
	TemporalFrac float64
	// SeqFrac is the fraction of memory accesses that walk
	// sequentially with the given stride (spatial locality). The
	// remaining accesses are uniform over the working set.
	SeqFrac float64
	// StrideBytes is the step of sequential accesses.
	StrideBytes uint64

	// MeanDepDist is the mean register-dependency back-distance in
	// instructions; short distances serialize execution and limit the
	// ILP the reorder buffer can extract.
	MeanDepDist float64

	// RedundantFrac is the fraction of compute instructions that carry
	// a redundant-computation identity, drawn Zipf-distributed over
	// NumCompIDs identities with exponent ZipfExponent. Instruction
	// precomputation captures the most frequent identities.
	RedundantFrac float64
	NumCompIDs    int
	ZipfExponent  float64
}

// Validate reports the first structural problem with the parameters.
func (p *Params) Validate() error {
	if p.NumBlocks < 2 {
		return fmt.Errorf("trace: NumBlocks = %d, need >= 2", p.NumBlocks)
	}
	if p.AvgBlockLen < 2 {
		return fmt.Errorf("trace: AvgBlockLen = %d, need >= 2", p.AvgBlockLen)
	}
	if p.WorkingSetBytes < 64 || p.WorkingSetBytes > math.MaxUint32 {
		return fmt.Errorf("trace: WorkingSetBytes = %d, need 64 to %d", p.WorkingSetBytes, uint64(math.MaxUint32))
	}
	// The code is laid out from CodeBase, each block at most
	// 4*AvgBlockLen+1 instructions, and must end by DataBase: code
	// past it would alias data in the unified L2. With both bounds,
	// every offset fits the 32 bits a tape and a reference view keep.
	if span := DataBase - CodeBase; uint64(p.AvgBlockLen) > span/32 || uint64(p.NumBlocks) > span/(16*uint64(p.AvgBlockLen)+4) {
		return fmt.Errorf("trace: %d blocks of mean length %d may reach DataBase", p.NumBlocks, p.AvgBlockLen)
	}
	if p.PatternPeriod < 1 {
		return fmt.Errorf("trace: PatternPeriod = %d, need >= 1", p.PatternPeriod)
	}
	total := 0.0
	for c := IntALU; c <= Store; c++ {
		if p.Mix[c] < 0 {
			return fmt.Errorf("trace: negative mix weight for %s", c)
		}
		total += p.Mix[c]
	}
	if total <= 0 {
		return fmt.Errorf("trace: instruction mix has no positive weights")
	}
	return nil
}

// CodeFootprintBytes estimates the static code size implied by the
// block structure.
func (p *Params) CodeFootprintBytes() uint64 {
	return uint64(p.NumBlocks) * uint64(p.AvgBlockLen) * 4
}

// terminator kinds for static blocks.
const (
	termBranch = iota
	termCall
	termReturn
)

// block is one static basic block.
type block struct {
	startPC  uint64
	bodyLen  int // instructions before the terminator
	term     int
	target   int    // taken-successor block index (branch/call)
	pattern  uint64 // branch taken/not-taken pattern bits (period <= 64)
	period   int
	noisy    bool // data-dependent branch: outcomes are not learnable
	dominant bool // the branch's dominant direction
}

// CodeBase and DataBase separate instruction and data address spaces.
const (
	CodeBase uint64 = 0x0040_0000
	DataBase uint64 = 1 << 32
)

// patternDeviation is the per-instance probability that a pattern
// branch deviates from its pattern (a data-dependent loop exit).
const patternDeviation = 0.01

// maxCallDepth bounds the simulated call stack.
const maxCallDepth = 64

// program is the immutable static structure compiled from one Params
// value: the basic-block graph, the body-class sampling CDF and the
// Zipf frequency table. A program is shared by every Generator built
// from the same parameters — a PB suite replays the identical workload
// once per design row, so the static structure (which costs tens of
// thousands of RNG draws to build) is compiled once per workload
// instead of once per run.
type program struct {
	p      Params // validated and normalized
	blocks []block
	// class sampling: cumulative weights over the body classes.
	classCDF [9]float64
	zipfCDF  []float64
}

// programs memoizes compiled static structures by their raw Params
// value (Params is comparable: scalars and one array). Entries are
// immutable once stored and the cache holds one entry per distinct
// workload parameterization, so it stays bounded by the suite size.
var programs sync.Map // Params -> *program

// Generator produces the instruction stream. It is not safe for
// concurrent use; create one generator per simulation run (or Reset
// one between runs).
type Generator struct {
	prog *program
	rng  *RNG
	zipf *Zipf

	// tape, when set, supplies the instructions from tape.start up to
	// its end (see Replay), tapePC being the next one's PC; meanwhile
	// the fields below except seq keep the state at tape.start.
	tape   *tape
	tapePC uint64

	cur       int // current block
	pos       int // next body position within the block
	visits    []uint32
	callStack []int // return-to block indices
	seq       int64 // instructions emitted so far

	seqAddr uint64
}

// zipfSeedMix decorrelates the redundancy-identity stream from the
// main sampling stream.
const zipfSeedMix = 0xa5a5_5a5a_1234_5678

// NewGenerator builds (or reuses) the static code structure for the
// parameters and returns a generator positioned at the first
// instruction.
func NewGenerator(p Params) (*Generator, error) {
	prog, err := compile(p)
	if err != nil {
		return nil, err
	}
	return prog.newGenerator(), nil
}

// compile returns the memoized program for p, building and caching it
// on first use.
func compile(p Params) (*program, error) {
	if cached, ok := programs.Load(p); ok {
		return cached.(*program), nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	key := p
	if p.PatternPeriod > 64 {
		p.PatternPeriod = 64
	}
	if p.NumCompIDs < 1 {
		p.NumCompIDs = 1
	}
	if p.StrideBytes == 0 {
		p.StrideBytes = 8
	}
	if p.BranchBias == 0 { //pbcheck:ignore floateq zero-value sentinel for an unset config field, exact by construction
		p.BranchBias = 0.9
	}
	prog := &program{p: p, zipfCDF: zipfCDF(p.NumCompIDs, p.ZipfExponent)}

	// Static structure comes from its own RNG so that runtime
	// sampling does not perturb it.
	srng := NewRNG(p.Seed ^ 0x5bd1_e995_0bad_cafe)
	prog.blocks = make([]block, p.NumBlocks)
	// Hot function set: call sites target a bounded set of function
	// entry blocks, skewed toward the hottest few, the way real call
	// graphs concentrate on a handful of hot callees. The set grows
	// with the code size so large programs still spread their
	// instruction working set.
	numFuncs := p.NumBlocks / 64
	if numFuncs < 4 {
		numFuncs = 4
	}
	funcEntries := make([]int, numFuncs)
	for i := range funcEntries {
		funcEntries[i] = srng.Intn(p.NumBlocks)
	}
	pc := CodeBase
	for i := range prog.blocks {
		b := &prog.blocks[i]
		b.startPC = pc
		// Block lengths vary around the mean but keep at least one
		// body instruction.
		bodyMean := p.AvgBlockLen - 1
		b.bodyLen = 1 + srng.Geometric(float64(bodyMean))
		if b.bodyLen > 4*p.AvgBlockLen {
			b.bodyLen = 4 * p.AvgBlockLen
		}
		pc += uint64(b.bodyLen+1) * 4
		r := srng.Float64()
		switch {
		case r < p.CallFraction:
			b.term = termCall
		case r < 2*p.CallFraction:
			b.term = termReturn
		default:
			b.term = termBranch
		}
		if b.term == termCall {
			// Each call site targets one hot function, preferring the
			// hottest.
			b.target = funcEntries[(srng.Geometric(3)-1)%numFuncs]
		} else if srng.Float64() < p.FarJumpFrac {
			// Phase-change jumps go anywhere in the code.
			b.target = srng.Intn(p.NumBlocks)
		} else {
			// Branch targets are local (loops and nearby control
			// flow): the walk stays in a drifting neighborhood, giving
			// the branch-site and instruction working sets the phase
			// locality real programs have. The neighborhood width
			// scales with the code size so that large-footprint
			// programs keep an instantaneous footprint that stresses
			// small instruction caches.
			var offset int
			if srng.Float64() < 0.55 {
				// Backward branch: a tight loop over a few blocks.
				// Loop branches dominate dynamic execution (they are
				// mostly taken and re-execute their bodies), which
				// concentrates the hot branch-site set the way real
				// programs do.
				offset = -(1 + srng.Geometric(4))
			} else {
				// Forward branch: skips and if/else chains; the reach
				// scales with the code size so large programs spread
				// their instruction working set.
				spread := float64(p.NumBlocks) / 12
				if spread < 8 {
					spread = 8
				} else if spread > 64 {
					spread = 64
				}
				offset = 1 + srng.Geometric(spread)
			}
			t := (i + offset) % p.NumBlocks
			if t < 0 {
				t += p.NumBlocks
			}
			b.target = t
		}
		b.period = p.PatternPeriod
		b.noisy = srng.Float64() >= p.Predictability
		// Backward branches are loop branches and lean heavily toward
		// taken, so the walk re-executes the loop body many times
		// (giving the predictor, BTB and I-cache the reuse real loops
		// provide); forward branches lean not-taken.
		if b.term == termBranch && b.target <= i {
			b.dominant = srng.Float64() < 0.85
		} else {
			b.dominant = srng.Float64() < 0.25
		}
		// Pattern bits lean toward the dominant direction, like real
		// branches; the off-dominant bits form a periodic pattern a
		// history-based predictor can learn.
		for bit := 0; bit < 64; bit++ {
			v := b.dominant
			if srng.Float64() >= p.BranchBias {
				v = !b.dominant
			}
			if v {
				b.pattern |= 1 << uint(bit)
			}
		}
	}
	// Cumulative mix over body classes IntALU..Store.
	sum := 0.0
	for c := IntALU; c <= Store; c++ {
		sum += p.Mix[c]
		prog.classCDF[c] = sum
	}
	for c := IntALU; c <= Store; c++ {
		prog.classCDF[c] /= sum
	}
	// Two goroutines compiling the same Params race benignly: both
	// build identical programs and the first store wins.
	actual, _ := programs.LoadOrStore(key, prog)
	return actual.(*program), nil
}

// newGenerator positions a fresh dynamic state at the program's first
// instruction.
func (pr *program) newGenerator() *Generator {
	return &Generator{
		prog:    pr,
		rng:     NewRNG(pr.p.Seed),
		zipf:    &Zipf{cdf: pr.zipfCDF, rng: NewRNG(pr.p.Seed ^ zipfSeedMix)},
		visits:  make([]uint32, len(pr.blocks)),
		seqAddr: DataBase,
	}
}

// Reset rewinds the generator to the first instruction of a fresh
// stream: the subsequent sequence of instructions is bit-identical to
// that of a newly constructed generator with the same parameters. It
// lets a worker reuse one generator's allocations across many
// simulation runs.
func (g *Generator) Reset() {
	g.tape = nil
	g.rng.state = g.prog.p.Seed
	g.zipf.rng.state = g.prog.p.Seed ^ zipfSeedMix
	g.cur, g.pos, g.seq = 0, 0, 0
	for i := range g.visits {
		g.visits[i] = 0
	}
	g.callStack = g.callStack[:0]
	g.seqAddr = DataBase
}

// Params returns the generator's (validated, normalized) parameters.
func (g *Generator) Params() Params { return g.prog.p }

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() int64 { return g.seq }

// Next produces the next dynamic instruction. The stream is infinite;
// the caller decides how many instructions to simulate.
//
//pbcheck:hotpath
func (g *Generator) Next() Instr {
	if g.tape != nil {
		// The tape format has one decoder. Past the tape's end,
		// NextPacked packs the live instruction that this then
		// unpacks, once per tape.
		var p Packed
		g.NextPacked(&p)
		return p.Unpack()
	}
	b := &g.prog.blocks[g.cur]
	var in Instr
	if g.pos < b.bodyLen {
		in = g.bodyInstr(b)
		g.pos++
	} else {
		in = g.controlInstr(b)
		g.pos = 0
	}
	g.seq++
	return in
}

// NextPacked produces the next dynamic instruction into p: the stream
// Next produces, packed. While a tape plays it copies the tape's record
// and decodes nothing; past the tape's end it packs what Next
// generates.
//
//pbcheck:hotpath
func (g *Generator) NextPacked(p *Packed) {
	if t := g.tape; t != nil {
		if i := g.seq - t.start; i < int64(len(t.recs)) {
			g.seq++
			*p = Packed{pc: uint32(g.tapePC - CodeBase), tapeRec: t.recs[i]}
			g.tapePC = p.next()
			return
		}
		g.load(&t.end)
	}
	// Next's live path, repeated: calling Next and copying its 56-byte
	// result back made live functional warming 12% slower.
	b := &g.prog.blocks[g.cur]
	var in Instr
	if g.pos < b.bodyLen {
		in = g.bodyInstr(b)
		g.pos++
	} else {
		in = g.controlInstr(b)
		g.pos = 0
	}
	g.seq++
	*p = pack(&in, g.prog.codeEnd())
}

// bodyInstr emits one non-control instruction of the current block.
//
//pbcheck:hotpath
func (g *Generator) bodyInstr(b *block) Instr {
	in := Instr{PC: b.startPC + uint64(g.pos)*4}
	u := g.rng.Float64()
	c := IntALU
	for c < Store && u > g.prog.classCDF[c] {
		c++
	}
	in.Class = c
	in.Dep1 = g.depDistance()
	if g.rng.Float64() < 0.5 {
		in.Dep2 = g.depDistance()
	}
	if c.IsMem() {
		in.Addr = g.memAddress()
	}
	if c.IsCompute() && g.rng.Float64() < g.prog.p.RedundantFrac {
		in.CompID = uint32(g.zipf.Next())
	}
	return in
}

// controlInstr emits the block terminator and advances to the
// successor block.
//
//pbcheck:hotpath
func (g *Generator) controlInstr(b *block) Instr {
	in := Instr{PC: b.startPC + uint64(b.bodyLen)*4}
	in.Dep1 = g.depDistance()
	blocks := g.prog.blocks
	next := g.cur + 1
	if next >= len(blocks) {
		next = 0
	}
	switch {
	case b.term == termCall && len(g.callStack) < maxCallDepth:
		in.Class = Call
		in.Taken = true
		in.Target = blocks[b.target].startPC
		// Addr carries the return address (the call's fall-through
		// block) so the simulator's return-address stack can push the
		// exact value the matching Return will jump to.
		in.Addr = blocks[next].startPC
		g.callStack = append(g.callStack, next)
		next = b.target
	case b.term == termReturn && len(g.callStack) > 0:
		in.Class = Return
		in.Taken = true
		retTo := g.callStack[len(g.callStack)-1]
		g.callStack = g.callStack[:len(g.callStack)-1]
		in.Target = blocks[retTo].startPC
		next = retTo
	default:
		in.Class = Branch
		var taken bool
		if b.noisy {
			// Data-dependent branch: dominant direction with
			// per-instance noise no predictor can learn.
			taken = b.dominant
			if g.rng.Float64() >= g.prog.p.BranchBias {
				taken = !taken
			}
		} else {
			// Regular control flow: a periodic pattern with a small
			// per-instance deviation (data-dependent loop exits).
			// The deviation also keeps the block walk ergodic: without
			// it, the walk could fall into a closed deterministic
			// orbit and stop exploring the code and data space.
			v := g.visits[g.cur]
			g.visits[g.cur] = v + 1
			taken = b.pattern>>(v%uint32(b.period))&1 == 1
			if g.rng.Float64() < patternDeviation {
				taken = !taken
			}
		}
		in.Taken = taken
		if taken {
			in.Target = blocks[b.target].startPC
			next = b.target
		}
	}
	g.cur = next
	return in
}

// depDistance samples a register-dependency back-distance, clamped to
// the instructions actually emitted.
//
//pbcheck:hotpath
func (g *Generator) depDistance() int32 {
	d := int64(g.rng.Geometric(g.prog.p.MeanDepDist))
	if d > 64 {
		d = 64
	}
	if d > g.seq {
		d = g.seq
	}
	return int32(d)
}

// hotRegionBytes bounds the hot (stack-like) data region.
const hotRegionBytes = 64 << 10

// memAddress samples an effective address according to the locality
// model.
//
//pbcheck:hotpath
func (g *Generator) memAddress() uint64 {
	p := &g.prog.p
	var addr uint64
	u := g.rng.Float64()
	switch {
	case u < p.TemporalFrac:
		// Hot region with a heavy skew toward the base: u^8 puts
		// about 70% of these accesses in the first 4 KB of a 64 KB
		// region, so small caches capture most but not all of them.
		hot := p.WorkingSetBytes
		if hot > hotRegionBytes {
			hot = hotRegionBytes
		}
		v := g.rng.Float64()
		v = v * v // v^2
		v = v * v // v^4
		v = v * v // v^8
		addr = DataBase + uint64(v*float64(hot))&^7
	case u < p.TemporalFrac+p.SeqFrac:
		g.seqAddr += p.StrideBytes
		if g.seqAddr >= DataBase+p.WorkingSetBytes {
			g.seqAddr = DataBase
		}
		addr = g.seqAddr
	default:
		addr = DataBase + (g.rng.Uint64()%p.WorkingSetBytes)&^7
	}
	return addr
}
