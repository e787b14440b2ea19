package sim

import (
	"fmt"
	"math/bits"

	"pbsim/internal/sim/bpred"
	"pbsim/internal/sim/cache"
	"pbsim/internal/sim/pipeline"
	"pbsim/internal/trace"
)

// ComputeShortcut lets an enhancement bypass execution of arithmetic
// instructions whose result is already known: the mechanism behind
// instruction precomputation and value reuse (Section 4.3 of the
// paper). Hit is consulted at dispatch; Observe is called when a
// compute instruction commits, letting dynamic schemes train.
type ComputeShortcut interface {
	Hit(compID uint32) bool
	Observe(compID uint32)
}

// maxDepDistance is the largest register-dependency back-distance the
// trace generator emits; the readiness ring must cover the ROB plus
// this margin.
const maxDepDistance = 64

// CPU is one simulated processor instance bound to one instruction
// stream. It serves one run and is not goroutine-safe. Once the run's
// statistics are read, Release hands its cache and TLB arrays to the
// next New instead of the garbage collector; a CPU that is never
// released is collected as usual.
type CPU struct {
	cfg  Config
	gen  *trace.Generator
	hier *cache.Hierarchy

	pred *bpred.TwoLevel // nil when Predictor == PredPerfect
	btb  *bpred.BTB
	ras  *bpred.RAS

	intALU, intMD, fpALU, fpMD *pipeline.Pool
	// units binds each instruction class to its functional unit.
	units [trace.NumClasses]unit

	rob *pipeline.ROB
	lsq *pipeline.LSQ

	shortcut ComputeShortcut

	// instrs holds each instruction from fetch to retirement, packed,
	// at index seq&instrMask: the ROB's entries, then the IFQ, which
	// is the range [dispatched, seq), then the record at seq when a
	// stalled fetch left it pending. It covers ROBEntries + IFQEntries
	// + 1 instructions, so a slot is reused only after its instruction
	// retired, and every stage reads an instruction in place.
	instrs    []trace.Packed
	instrMask int64

	// readyRing holds the result-ready cycle of recent instructions,
	// indexed by sequence number; sized to cover the ROB plus the
	// maximum dependency distance so a slot is never reused while an
	// in-flight instruction can still read it.
	readyRing []int64
	ringMask  int64

	seq        int64 // the next instruction to fetch
	dispatched int64 // the next instruction to dispatch
	committed  int64
	cycle      int64

	// pending marks that the record at seq was drawn from the
	// generator but not fetched: fetch stalled on it.
	pending bool

	// stopAt caps retirement so runs end on exact instruction counts.
	stopAt int64

	fetchBlockedUntil int64
	haltSeq           int64 // seq of the in-flight mispredicted instr, -1 if none
	resumeAt          int64 // cycle fetch resumes after the halt, -1 until resolved
	redirectPending   bool
	lastFetchBlock    uint64

	// refs is the buffer WarmFunctional lends the generator to build
	// an untaped window's view into.
	refs trace.Refs

	stats Stats
}

// unit is the functional-unit binding of one instruction class.
type unit struct {
	pool     *pipeline.Pool // nil for loads and stores, which take a memory port
	lat      int64          // cycles until the result is available
	interval int64          // initiation interval: 1 when pipelined, lat when not
}

// Stats aggregates one run's results.
type Stats struct {
	Cycles       int64
	Instructions int64
	// Control-flow statistics.
	ControlInstrs uint64
	Mispredicts   uint64
	// Misprediction causes, counted at prediction time: wrong
	// direction, missing/wrong BTB target, and wrong return-address
	// stack prediction.
	MispredDirection uint64
	MispredBTB       uint64
	MispredRAS       uint64
	// Loads and Stores counted at commit.
	Loads, Stores uint64
	// PrecompHits counts instructions satisfied by the compute
	// shortcut instead of a functional unit.
	PrecompHits uint64
	// Memory-system statistics.
	L1I, L1D, L2, ITLB, DTLB cache.Stats
	DRAMAccesses             uint64
	// Functional-unit issue counts.
	IntALUOps, IntMDOps, FPALUOps, FPMDOps uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate returns mispredicted control instructions per control
// instruction.
func (s Stats) MispredictRate() float64 {
	if s.ControlInstrs == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.ControlInstrs)
}

// New builds a CPU for the given configuration and instruction stream.
// shortcut may be nil (no enhancement).
func New(cfg Config, gen *trace.Generator, shortcut ComputeShortcut) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.HierarchyConfig())
	if err != nil {
		return nil, err
	}
	instrs := ringSize(cfg.ROBEntries + cfg.IFQEntries + 1)
	ready := ringSize(cfg.ROBEntries + maxDepDistance + 1)
	c := &CPU{
		cfg:       cfg,
		gen:       gen,
		hier:      hier,
		shortcut:  shortcut,
		instrs:    make([]trace.Packed, instrs),
		instrMask: instrs - 1,
		readyRing: make([]int64, ready),
		ringMask:  ready - 1,
		haltSeq:   -1,
		resumeAt:  -1,
	}
	if cfg.Predictor != PredPerfect {
		if c.pred, err = bpred.NewTwoLevel(8, 12); err != nil {
			return nil, err
		}
		if c.btb, err = bpred.NewBTB(cfg.BTBEntries, cfg.BTBAssoc); err != nil {
			return nil, err
		}
		if c.ras, err = bpred.NewRAS(cfg.RASEntries); err != nil {
			return nil, err
		}
	}
	if c.intALU, err = pipeline.NewPool(cfg.IntALUs); err != nil {
		return nil, err
	}
	if c.intMD, err = pipeline.NewPool(cfg.IntMultDivs); err != nil {
		return nil, err
	}
	if c.fpALU, err = pipeline.NewPool(cfg.FPALUs); err != nil {
		return nil, err
	}
	if c.fpMD, err = pipeline.NewPool(cfg.FPMultDivs); err != nil {
		return nil, err
	}
	alu := unit{c.intALU, int64(cfg.IntALULat), 1}
	c.units = [trace.NumClasses]unit{
		trace.IntALU:  alu,
		trace.Branch:  alu,
		trace.Call:    alu,
		trace.Return:  alu,
		trace.IntMult: {c.intMD, int64(cfg.IntMultLat), 1},
		trace.IntDiv:  {c.intMD, int64(cfg.IntDivLat), int64(cfg.IntDivLat)},
		trace.FPAdd:   {c.fpALU, int64(cfg.FPALULat), 1},
		trace.FPMult:  {c.fpMD, int64(cfg.FPMultLat), int64(cfg.FPMultLat)},
		trace.FPDiv:   {c.fpMD, int64(cfg.FPDivLat), int64(cfg.FPDivLat)},
		trace.FPSqrt:  {c.fpMD, int64(cfg.FPSqrtLat), int64(cfg.FPSqrtLat)},
	}
	if c.rob, err = pipeline.NewROB(cfg.ROBEntries); err != nil {
		return nil, err
	}
	if c.lsq, err = pipeline.NewLSQ(cfg.LSQEntries()); err != nil {
		return nil, err
	}
	return c, nil
}

// ringSize returns the smallest power of two, at least 2, that is at
// least n: the size of a ring indexed by sequence number and a mask.
func ringSize(n int) int64 {
	size := int64(2)
	for size < int64(n) {
		size *= 2
	}
	return size
}

// RunRow simulates one experiment row on a fresh CPU over gen's stream
// from wherever the caller positioned it: it replays the shared tape
// of every instruction the row commits (trace.Generator.Replay),
// builds and prewarms the CPU, warms funcWarm instructions
// functionally and warmup more in detail, then measures each window
// of measure in turn into out[i] (out holds at least len(measure)),
// and releases the CPU. A full row is one window after no functional
// warming; a sampled group is one window per region. Every row of
// every mode runs this one sequence, so all rows of a benchmark
// simulate the same stream the same way.
func RunRow(cfg Config, gen *trace.Generator, sc ComputeShortcut, funcWarm, warmup int64, measure []int64, out []Stats) error {
	if funcWarm < 0 || warmup < 0 || len(measure) == 0 {
		return fmt.Errorf("sim: invalid row (functional warmup %d, warmup %d, %d windows)", funcWarm, warmup, len(measure))
	}
	total := funcWarm + warmup
	for _, n := range measure {
		if n <= 0 {
			return fmt.Errorf("sim: instruction count %d invalid", n)
		}
		total += n
	}
	gen.Replay(total)
	cpu, err := New(cfg, gen, sc)
	if err != nil {
		return err
	}
	defer cpu.Release()
	cpu.PrewarmMemory()
	cpu.WarmFunctional(funcWarm)
	if warmup > 0 {
		if _, err := cpu.RunMore(warmup); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	for i, n := range measure {
		if out[i], err = cpu.RunMore(n); err != nil {
			return err
		}
	}
	return nil
}

// Release returns the CPU's memory-hierarchy arrays to the free list
// New draws from (cache.Hierarchy.Release). The CPU is unusable
// afterwards: running, warming or prewarming it panics rather than
// share arrays with another CPU. Releasing twice does nothing.
func (c *CPU) Release() {
	if c.hier != nil {
		c.hier.Release()
		c.hier = nil
	}
}

// PrewarmMemory performs functional cache warming: it touches the
// workload's entire data working set and code footprint in the memory
// hierarchy without charging time, the scaled-down equivalent of the
// multi-billion-instruction warm-up the paper's full SPEC runs
// provide. The measured phase then observes steady-state rather than
// compulsory misses.
func (c *CPU) PrewarmMemory() {
	p := c.gen.Params()
	c.hier.PrewarmCode(trace.CodeBase, p.CodeFootprintBytes())
	c.hier.PrewarmData(trace.DataBase, p.WorkingSetBytes)
}

// WarmFunctional consumes n instructions from the stream, training the
// branch predictor, BTB, RAS, caches and TLBs exactly as detailed
// execution would — but without advancing the pipeline or charging
// cycles. It is the functional-warming phase of sampled simulation
// (SMARTS-style): history-dependent structures enter a sampled region
// in the trained state a continuous run would have given them, at a
// fraction of the detailed cost. Call it only before detailed
// simulation begins; once instructions are in flight the pipeline owns
// the stream.
//
// It warms by structure, not by instruction: the generator hands over
// the window's reference view (trace.Generator.Refs), which every
// design row shares when a tape covers the window, and each structure
// takes the whole window's accesses in turn: the ITLB and L1I, the
// DTLB and L1D, the L2 (over the L1 misses, merged back into
// instruction order), then the predictor, BTB and RAS. Each structure
// sees the access sequence an instruction-by-instruction walk gives
// it, and only the L2 sees two streams, so every state ends as that
// walk leaves it.
func (c *CPU) WarmFunctional(n int64) {
	if n > 0 && c.pending {
		// An instruction fetch left pending (a stalled fetch) comes
		// before the generator's next one.
		c.pending = false
		c.warmPending(c.instr(c.seq).Unpack())
		n--
	}
	for n > 0 {
		v := c.gen.Refs(n, &c.refs)
		c.warmFetch(v)
		c.warmData(v)
		c.hier.FinishWarm()
		if c.pred != nil {
			c.warmControl(v)
		}
		n -= v.Len()
	}
}

// warmFetch is the I-side pass: every instruction whose cache block
// differs from its predecessor's is fetched through the ITLB and L1I,
// as fetchStage does. A run's blocks follow from its PCs, so the
// fetches are one per block the run enters, whatever the L1I block
// size.
//
//pbcheck:hotpath
func (c *CPU) warmFetch(v *trace.Refs) {
	shift := uint(bits.TrailingZeros(uint(c.cfg.L1IBlock)))
	last := c.lastFetchBlock
	pos := uint32(0) // the window position of the instruction at pc
	for i, runs := 0, v.Runs(); i < runs; i++ {
		pc, n := v.Run(i)
		next := pos + n
		for end := pc + 4*uint64(n); pc < end; {
			blk := pc >> shift
			if blk != last {
				c.hier.WarmFetch(pc, pos)
				last = blk
			}
			// Skip to the first instruction of the next block.
			k := ((blk+1)<<shift - pc + 3) >> 2
			pc += k << 2
			pos += uint32(k)
		}
		pos = next
	}
	c.lastFetchBlock = last
}

// warmData is the D-side pass: every load and store through the DTLB
// and L1D.
//
//pbcheck:hotpath
func (c *CPU) warmData(v *trace.Refs) {
	for i, n := 0, v.Mems(); i < n; i++ {
		c.hier.WarmData(v.Mem(i))
	}
}

// warmControl is the predictor pass: the direction predictor, BTB and
// RAS trained by every control instruction in order.
//
//pbcheck:hotpath
func (c *CPU) warmControl(v *trace.Refs) {
	for i, n := 0, v.Ctrls(); i < n; i++ {
		c.train(v.Ctrl(i))
	}
}

// warmPending warms one instruction the way the passes warm a window.
//
//pbcheck:hotpath
func (c *CPU) warmPending(in trace.Instr) {
	if block := in.PC / uint64(c.cfg.L1IBlock); block != c.lastFetchBlock {
		c.hier.InstFetch(in.PC, c.cycle)
		c.lastFetchBlock = block
	}
	if in.Class.IsControl() && c.pred != nil {
		c.train(in)
	}
	if in.Class.IsMem() {
		c.hier.DataAccess(in.Addr, c.cycle)
	}
}

// train applies the predictor-training side effects of one control
// instruction — the same updates predictControl and commitStage
// perform, minus the prediction itself.
//
//pbcheck:hotpath
func (c *CPU) train(in trace.Instr) {
	switch in.Class {
	case trace.Branch:
		c.pred.Update(in.PC, in.Taken)
		if in.Taken {
			c.btb.Insert(in.PC, in.Target)
		}
	case trace.Call:
		c.ras.Push(in.Addr)
		c.btb.Insert(in.PC, in.Target)
	case trace.Return:
		c.ras.Pop()
	}
}

// Run simulates until n instructions commit and returns the run's
// statistics. It errors out if the pipeline stops making progress
// (which would indicate a simulator bug, not a configuration choice).
func (c *CPU) Run(n int64) (Stats, error) {
	if n <= 0 {
		return Stats{}, fmt.Errorf("sim: instruction count %d invalid", n)
	}
	if err := c.runTo(n); err != nil {
		return c.snapshot(), err
	}
	return c.snapshot(), nil
}

// RunWithWarmup simulates warmup instructions to populate the caches,
// TLBs and predictors, then simulates n more and returns statistics
// covering only the measured phase.
func (c *CPU) RunWithWarmup(warmup, n int64) (Stats, error) {
	if warmup < 0 || n <= 0 {
		return Stats{}, fmt.Errorf("sim: invalid warmup/measure counts (%d, %d)", warmup, n)
	}
	if err := c.runTo(warmup); err != nil {
		return c.snapshot(), err
	}
	base := c.snapshot()
	if err := c.runTo(warmup + n); err != nil {
		return c.snapshot(), err
	}
	return c.snapshot().sub(base), nil
}

// RunMore advances the same CPU by n more committed instructions and
// returns statistics covering only that increment. Successive calls
// partition one continuous run into consecutive measured windows
// without disturbing microarchitectural state — the sampling layer
// uses it to read per-region cycle counts off a single warmed
// pipeline.
func (c *CPU) RunMore(n int64) (Stats, error) {
	if n <= 0 {
		return Stats{}, fmt.Errorf("sim: instruction count %d invalid", n)
	}
	base := c.snapshot()
	if err := c.runTo(c.committed + n); err != nil {
		return c.snapshot().sub(base), err
	}
	return c.snapshot().sub(base), nil
}

// runTo advances the simulation until the committed-instruction count
// reaches target. The clock is event-driven but exact: after a cycle
// in which no stage changed any state, every stage would see the same
// state in the following cycles, and each acts only once a cycle
// threshold nextEvent knows has passed, so the loop jumps straight to
// the cycle before the earliest one. The skipped cycles are no-ops,
// and every statistic matches stepping through them one by one.
func (c *CPU) runTo(target int64) error {
	c.stopAt = target
	// Generous progress bound: even a 1-wide machine with worst-case
	// memory latencies commits one instruction within ~1000 cycles.
	maxCycles := c.cycle + (target-c.committed)*2000 + 100000
	for c.committed < target {
		c.cycle++
		committed := c.commitStage()
		issued := c.issueStage()
		dispatched := c.dispatchStage()
		fetched := c.fetchStage()
		if c.cycle > maxCycles {
			return fmt.Errorf("sim: no forward progress after %d cycles (%d/%d committed)", c.cycle, c.committed, target)
		}
		if !committed && !issued && !dispatched && !fetched {
			// Clamped so a stalled pipeline still stops at exactly
			// maxCycles+1, as it would stepping cycle by cycle.
			c.cycle = min(c.nextEvent(), maxCycles+1) - 1
		}
	}
	return nil
}

// nextEvent returns the earliest cycle after the current one at which
// some stage can act, given that none acted in the current cycle, or
// pipeline.NotReady when none can act again. Each stage's only
// cycle-dependent conditions are the thresholds below; everything else
// it tests changes only when a stage acts. The result may be early,
// never late: an early answer only costs a stepped no-op cycle.
//
//pbcheck:hotpath
//pbcheck:pure
func (c *CPU) nextEvent() int64 {
	now := c.cycle
	if c.dispatched < c.seq && !c.rob.Full() && (!c.instr(c.dispatched).Class().IsMem() || !c.lsq.Full()) {
		// Dispatch tests no cycle threshold, so if it can act at all
		// it acts in the next cycle.
		return now + 1
	}
	next := int64(pipeline.NotReady)
	// Commit: the head retires once its result is ready.
	if h := c.rob.Head(); h != nil && h.Issued {
		next = h.ReadyAt
	}
	// Fetch: resumes after a resolved mispredict, or restarts after an
	// instruction-cache stall when the IFQ has room.
	if c.haltSeq >= 0 {
		if c.resumeAt >= 0 {
			next = min(next, c.resumeAt)
		}
	} else if !c.ifqFull() {
		next = min(next, c.fetchBlockedUntil)
	}
	// Issue: a candidate issues once both operands are ready and, for
	// an arithmetic or control class, a unit of its pool is free.
	// Memory ports are free in every cycle that begins with nothing
	// issued. An entry that is not a candidate awaits a producer that
	// has not issued, which is itself a candidate or awaits one.
	for k, n := 0, c.rob.AgeWords(); k < n; k++ {
		base, word := c.rob.AgeWord(k)
		for ; word != 0; word &= word - 1 {
			e := c.rob.Slot(base + bits.TrailingZeros64(word))
			at := e.OpsAt
			if at >= next {
				continue
			}
			if p := c.units[e.Class].pool; p != nil {
				at = max(at, p.NextFree())
			}
			next = min(next, at)
		}
	}
	return max(next, now+1)
}

// sub returns s - base, field-wise, for warmup exclusion.
func (s Stats) sub(base Stats) Stats {
	subCache := func(a, b cache.Stats) cache.Stats {
		return cache.Stats{Accesses: a.Accesses - b.Accesses, Misses: a.Misses - b.Misses}
	}
	return Stats{
		Cycles:           s.Cycles - base.Cycles,
		Instructions:     s.Instructions - base.Instructions,
		ControlInstrs:    s.ControlInstrs - base.ControlInstrs,
		Mispredicts:      s.Mispredicts - base.Mispredicts,
		MispredDirection: s.MispredDirection - base.MispredDirection,
		MispredBTB:       s.MispredBTB - base.MispredBTB,
		MispredRAS:       s.MispredRAS - base.MispredRAS,
		Loads:            s.Loads - base.Loads,
		Stores:           s.Stores - base.Stores,
		PrecompHits:      s.PrecompHits - base.PrecompHits,
		L1I:              subCache(s.L1I, base.L1I),
		L1D:              subCache(s.L1D, base.L1D),
		L2:               subCache(s.L2, base.L2),
		ITLB:             subCache(s.ITLB, base.ITLB),
		DTLB:             subCache(s.DTLB, base.DTLB),
		DRAMAccesses:     s.DRAMAccesses - base.DRAMAccesses,
		IntALUOps:        s.IntALUOps - base.IntALUOps,
		IntMDOps:         s.IntMDOps - base.IntMDOps,
		FPALUOps:         s.FPALUOps - base.FPALUOps,
		FPMDOps:          s.FPMDOps - base.FPMDOps,
	}
}

// snapshot finalizes the statistics.
func (c *CPU) snapshot() Stats {
	s := c.stats
	s.Cycles = c.cycle
	s.Instructions = c.committed
	s.L1I = c.hier.L1I.Stats()
	s.L1D = c.hier.L1D.Stats()
	s.L2 = c.hier.L2.Stats()
	s.ITLB = c.hier.ITLB.Stats()
	s.DTLB = c.hier.DTLB.Stats()
	s.DRAMAccesses = c.hier.DRAMAccesses
	s.IntALUOps = c.intALU.Issued()
	s.IntMDOps = c.intMD.Issued()
	s.FPALUOps = c.fpALU.Issued()
	s.FPMDOps = c.fpMD.Issued()
	return s
}

// instr returns the ring slot of the instruction with sequence number
// seq: one in flight, or the one fetch draws next.
//
//pbcheck:hotpath
func (c *CPU) instr(seq int64) *trace.Packed { return &c.instrs[seq&c.instrMask] }

// ifqFull reports whether the IFQ, the fetched instructions not yet
// dispatched, has no free slot.
//
//pbcheck:hotpath
func (c *CPU) ifqFull() bool { return c.seq-c.dispatched == int64(c.cfg.IFQEntries) }

// fetchStage fills the IFQ: up to Width instructions per cycle, at
// most one new instruction-cache block per cycle, stopping at a taken
// control instruction, an IFQ-full condition, an instruction-cache
// stall, or a misprediction (fetch halts until the offending
// instruction resolves and the penalty elapses). It reports whether
// it changed any state; resuming from a halt counts even when fetch
// then blocks.
//
//pbcheck:hotpath
func (c *CPU) fetchStage() bool {
	resumed := false
	if c.haltSeq >= 0 {
		if c.resumeAt < 0 || c.cycle < c.resumeAt {
			return false
		}
		c.haltSeq = -1
		c.resumeAt = -1
		c.redirectPending = true
		resumed = true
	}
	if c.cycle < c.fetchBlockedUntil || c.ifqFull() {
		return resumed
	}
	// From here fetch always acts: it either probes a new block or
	// consumes an instruction.
	blockBytes := uint64(c.cfg.L1IBlock)
	fetchedN := 0
	for fetchedN < c.cfg.Width && !c.ifqFull() {
		p := c.instr(c.seq)
		if !c.pending {
			// Drawn into its slot: a fetch that stalls below leaves
			// it pending there.
			c.gen.NextPacked(p)
			c.pending = true
		}
		pc := p.PC()
		block := pc / blockBytes
		if block != c.lastFetchBlock {
			lat := c.hier.InstFetch(pc, c.cycle)
			c.lastFetchBlock = block
			if c.redirectPending || lat > int64(c.cfg.L1ILat) {
				// A redirect pays the access latency; a miss stalls
				// fetch until the line arrives. (Sequential hits are
				// pipelined and cost nothing extra.)
				c.fetchBlockedUntil = c.cycle + lat
				c.redirectPending = false
				return true
			}
		}
		c.pending = false
		seq := c.seq
		c.seq++
		fetchedN++
		if p.Class().IsControl() && c.predictControl(p) {
			c.haltSeq = seq
			c.resumeAt = -1
			return true
		}
		if p.Taken() {
			// One taken control transfer per fetch cycle.
			return true
		}
	}
	return true
}

// predictControl runs the front-end prediction hardware for a control
// instruction and reports whether the prediction was wrong.
//
//pbcheck:hotpath
func (c *CPU) predictControl(p *trace.Packed) bool {
	if c.pred == nil {
		return false // perfect prediction
	}
	pc, taken, target := p.PC(), p.Taken(), p.Target()
	mispredict := false
	switch p.Class() {
	case trace.Branch:
		predTaken := c.pred.Predict(pc)
		dirWrong := predTaken != taken
		var predTarget uint64
		btbWrong := false
		if predTaken {
			tgt, hit := c.btb.Lookup(pc)
			if !hit {
				// No target available: fall through sequentially.
				predTaken = false
				btbWrong = taken
			} else {
				predTarget = tgt
				btbWrong = taken && predTarget != target
			}
		}
		mispredict = predTaken != taken || btbWrong
		if mispredict {
			if dirWrong {
				c.stats.MispredDirection++
			} else {
				c.stats.MispredBTB++
			}
		}
		if c.cfg.SpecUpdate {
			c.pred.Update(pc, taken)
			if taken {
				c.btb.Insert(pc, target)
			}
		}
	case trace.Call:
		tgt, hit := c.btb.Lookup(pc)
		mispredict = !hit || tgt != target
		if mispredict {
			c.stats.MispredBTB++
		}
		// The return address (the call's fall-through) is pushed
		// regardless of the target prediction.
		c.ras.Push(p.FallThrough())
		if c.cfg.SpecUpdate {
			c.btb.Insert(pc, target)
		}
	case trace.Return:
		tgt, ok := c.ras.Pop()
		mispredict = !ok || tgt != target
		if mispredict {
			c.stats.MispredRAS++
		}
	}
	return mispredict
}

// dispatchStage moves instructions from the IFQ into the ROB (and
// LSQ), applying the compute shortcut. It reports whether it moved
// any.
//
//pbcheck:hotpath
func (c *CPU) dispatchStage() bool {
	n := 0
	for ; n < c.cfg.Width && c.dispatched < c.seq; n++ {
		if c.rob.Full() {
			break
		}
		seq := c.dispatched
		p := c.instr(seq)
		class := p.Class()
		if class.IsMem() && !c.lsq.Alloc() {
			break
		}
		e := c.rob.Push()
		e.Class = class
		e.Seq = seq
		// Fetch halts at a mispredicted instruction and resumes only
		// after it issues, so the one in flight is the one it halted at.
		e.Mispredict = seq == c.haltSeq
		if id := p.CompID(); id != 0 && c.shortcut != nil && c.shortcut.Hit(id) {
			// Satisfied at dispatch: never a candidate.
			e.Issued = true
			e.Precomputed = true
			e.ReadyAt = c.cycle + 1
			c.readyRing[seq&c.ringMask] = e.ReadyAt
			c.stats.PrecompHits++
		} else {
			c.readyRing[seq&c.ringMask] = pipeline.NotReady
			at := int64(0)
			d1, d2 := p.Dep1(), p.Dep2()
			if d1 > 0 {
				at = c.operand(e, d1, at)
			}
			if d2 > 0 && d2 != d1 {
				at = c.operand(e, d2, at)
			}
			c.rob.Arm(e, at)
		}
		c.dispatched++
	}
	return n > 0
}

// operand resolves the source operand of the entry e being dispatched
// that the instruction d places older produces. A producer that has not
// issued is still in the ROB, and e awaits it there; otherwise the
// operand's ready cycle is folded into at, which is returned.
//
//pbcheck:hotpath
func (c *CPU) operand(e *pipeline.Entry, d int32, at int64) int64 {
	ready := c.readyRing[(e.Seq-int64(d))&c.ringMask]
	if ready == pipeline.NotReady {
		c.rob.Await(e, d)
		return at
	}
	return max(at, ready)
}

// issueStage selects up to Width ready instructions, oldest first,
// subject to functional-unit and memory-port availability. It walks
// only the ROB's issue candidates, the entries whose producers have
// all issued; an entry whose producer has not cannot be ready. It
// reports whether it issued any.
//
//pbcheck:hotpath
func (c *CPU) issueStage() bool {
	issued := 0
	portsUsed := 0
	for k, n := 0, c.rob.AgeWords(); k < n; k++ {
		base, word := c.rob.AgeWord(k)
		for ; word != 0; word &= word - 1 {
			s := base + bits.TrailingZeros64(word)
			e := c.rob.Slot(s)
			if e.OpsAt > c.cycle {
				continue
			}
			var ready int64
			switch u := &c.units[e.Class]; {
			case u.pool != nil:
				if !u.pool.TryIssue(c.cycle, u.interval) {
					continue
				}
				ready = c.cycle + u.lat
			case e.Class == trace.Load:
				if portsUsed >= c.cfg.MemPorts {
					continue
				}
				portsUsed++
				ready = c.cycle + c.hier.DataAccess(c.instr(e.Seq).Addr(), c.cycle)
			default: // trace.Store
				if portsUsed >= c.cfg.MemPorts {
					continue
				}
				portsUsed++
				// Address generation and store-buffer write; the cache is
				// updated at commit.
				ready = c.cycle + int64(c.cfg.L1DLat)
			}
			// Every latency is at least one cycle (Config.Validate), so
			// the consumers this wakes cannot issue before the next one.
			c.rob.Issue(s, ready)
			c.readyRing[e.Seq&c.ringMask] = ready
			if e.Mispredict && e.Seq == c.haltSeq {
				c.resumeAt = ready + int64(c.cfg.MispredictPenalty)
			}
			issued++
			if issued == c.cfg.Width {
				return true
			}
		}
	}
	return issued > 0
}

// commitStage retires completed instructions in order, up to Width per
// cycle, performing store writes, enhancement training, and (in
// commit-update mode) predictor training. It reports whether it
// retired any.
//
//pbcheck:hotpath
func (c *CPU) commitStage() bool {
	n := 0
	for ; n < c.cfg.Width && !c.rob.Empty() && c.committed < c.stopAt; n++ {
		e := c.rob.Head()
		if !e.Issued || e.ReadyAt > c.cycle {
			break
		}
		switch class := e.Class; {
		case class == trace.Load:
			c.stats.Loads++
			c.lsq.Release()
		case class == trace.Store:
			c.stats.Stores++
			c.lsq.Release()
			// The store drains to the cache now; it occupies the DRAM
			// channel on a miss but does not stall retirement.
			c.hier.DataAccess(c.instr(e.Seq).Addr(), c.cycle)
		case class.IsControl():
			c.stats.ControlInstrs++
			if e.Mispredict {
				c.stats.Mispredicts++
			}
			if c.pred != nil && !c.cfg.SpecUpdate {
				p := c.instr(e.Seq)
				if class == trace.Branch {
					c.pred.Update(p.PC(), p.Taken())
				}
				if p.Taken() && class != trace.Return {
					c.btb.Insert(p.PC(), p.Target())
				}
			}
		case class.IsCompute() && c.shortcut != nil:
			if id := c.instr(e.Seq).CompID(); id != 0 {
				c.shortcut.Observe(id)
			}
		}
		c.rob.PopHead()
		c.committed++
	}
	return n > 0
}
