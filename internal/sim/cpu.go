package sim

import (
	"fmt"

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

// fetched is one IFQ slot.
type fetched struct {
	instr      trace.Instr
	seq        int64
	mispredict bool
}

// CPU is one simulated processor instance bound to one instruction
// stream. Create a fresh CPU per run; it is not reusable or
// goroutine-safe.
type CPU struct {
	cfg  Config
	gen  *trace.Generator
	hier *cache.Hierarchy

	pred bpred.DirectionPredictor // nil when Predictor == PredPerfect
	btb  *bpred.BTB
	ras  *bpred.RAS

	intALU, intMD, fpALU, fpMD *pipeline.Pool
	// units binds each instruction class to its functional unit.
	units [trace.NumClasses]unit

	rob *pipeline.ROB
	lsq *pipeline.LSQ

	shortcut ComputeShortcut

	ifq     []fetched
	ifqHead int
	ifqLen  int

	// readyRing holds the result-ready cycle of recent instructions,
	// indexed by sequence number; sized to cover the ROB plus the
	// maximum dependency distance so a slot is never reused while an
	// in-flight instruction can still read it.
	readyRing []int64
	ringMask  int64

	seq       int64
	committed int64
	cycle     int64

	// pending buffers the next instruction by value: a pointer here
	// would force gen.Next's result to escape and cost one heap
	// allocation per fetched instruction.
	pending    trace.Instr
	pendingSet bool

	// stopAt caps retirement so runs end on exact instruction counts.
	stopAt int64

	fetchBlockedUntil int64
	haltSeq           int64 // seq of the in-flight mispredicted instr, -1 if none
	resumeAt          int64 // cycle fetch resumes after the halt, -1 until resolved
	redirectPending   bool
	lastFetchBlock    uint64

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
	ringSize := int64(2)
	for ringSize < int64(cfg.ROBEntries+maxDepDistance+1) {
		ringSize *= 2
	}
	c := &CPU{
		cfg:       cfg,
		gen:       gen,
		hier:      hier,
		shortcut:  shortcut,
		ifq:       make([]fetched, cfg.IFQEntries),
		readyRing: make([]int64, ringSize),
		ringMask:  ringSize - 1,
		haltSeq:   -1,
		resumeAt:  -1,
	}
	switch cfg.Predictor {
	case PredPerfect:
		c.pred = nil
	case PredBimodal:
		if c.pred, err = bpred.NewBimodal(12); err != nil {
			return nil, err
		}
	case PredAlwaysTaken:
		c.pred = bpred.Taken{}
	default:
		if c.pred, err = bpred.NewTwoLevel(8, 12); err != nil {
			return nil, err
		}
	}
	if c.pred != nil {
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
// in the trained state a continuous run would have given them, at
// generator-walk cost. Call it only before detailed simulation begins;
// once instructions are in flight the pipeline owns the stream.
//
//pbcheck:hotpath
func (c *CPU) WarmFunctional(n int64) {
	blockBytes := uint64(c.cfg.L1IBlock)
	for i := int64(0); i < n; i++ {
		in := c.nextInstr()
		c.consumeInstr()
		if block := in.PC / blockBytes; block != c.lastFetchBlock {
			c.hier.InstFetch(in.PC, c.cycle)
			c.lastFetchBlock = block
		}
		if in.Class.IsControl() && c.pred != nil {
			c.warmControl(in)
		}
		if in.Class.IsMem() {
			c.hier.DataAccess(in.Addr, c.cycle)
		}
	}
}

// warmControl applies the predictor-training side effects of one
// control instruction — the same updates predictControl and commitStage
// perform, minus the prediction itself.
//
//pbcheck:hotpath
func (c *CPU) warmControl(in trace.Instr) {
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
	if c.ifqLen > 0 && !c.rob.Full() && (!c.ifq[c.ifqHead].instr.Class.IsMem() || !c.lsq.Full()) {
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
	} else if c.ifqLen < len(c.ifq) {
		next = min(next, c.fetchBlockedUntil)
	}
	// Issue: an entry issues once both operands are ready and, for an
	// arithmetic or control class, a unit of its pool is free. Memory
	// ports are free in every cycle that begins with nothing issued.
	older, younger := c.rob.Window()
	for _, win := range [2][]pipeline.Entry{older, younger} {
		for i := range win {
			e := &win[i]
			if e.Issued {
				continue
			}
			at := c.operandsAt(e)
			if at >= next {
				continue
			}
			if p := c.units[e.Instr.Class].pool; p != nil {
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

// nextInstr returns the next instruction to fetch without consuming
// it; consume advances past it.
//
//pbcheck:hotpath
func (c *CPU) nextInstr() trace.Instr {
	if !c.pendingSet {
		c.pending = c.gen.Next()
		c.pendingSet = true
	}
	return c.pending
}

//pbcheck:hotpath
func (c *CPU) consumeInstr() {
	c.pendingSet = false
}

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
	if c.cycle < c.fetchBlockedUntil || c.ifqLen == len(c.ifq) {
		return resumed
	}
	// From here fetch always acts: it either probes a new block or
	// consumes an instruction.
	blockBytes := uint64(c.cfg.L1IBlock)
	fetchedN := 0
	for fetchedN < c.cfg.Width && c.ifqLen < len(c.ifq) {
		in := c.nextInstr()
		block := in.PC / blockBytes
		if block != c.lastFetchBlock {
			lat := c.hier.InstFetch(in.PC, c.cycle)
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
		c.consumeInstr()
		f := fetched{instr: in, seq: c.seq}
		c.seq++
		if in.Class.IsControl() {
			f.mispredict = c.predictControl(in)
		}
		slot := c.ifqHead + c.ifqLen // < 2*len, so one conditional wrap suffices
		if slot >= len(c.ifq) {
			slot -= len(c.ifq)
		}
		c.ifq[slot] = f
		c.ifqLen++
		fetchedN++
		if f.mispredict {
			c.haltSeq = f.seq
			c.resumeAt = -1
			return true
		}
		if in.Taken {
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
func (c *CPU) predictControl(in trace.Instr) bool {
	if c.pred == nil {
		return false // perfect prediction
	}
	mispredict := false
	switch in.Class {
	case trace.Branch:
		predTaken := c.pred.Predict(in.PC)
		dirWrong := predTaken != in.Taken
		var predTarget uint64
		btbWrong := false
		if predTaken {
			tgt, hit := c.btb.Lookup(in.PC)
			if !hit {
				// No target available: fall through sequentially.
				predTaken = false
				btbWrong = in.Taken
			} else {
				predTarget = tgt
				btbWrong = in.Taken && predTarget != in.Target
			}
		}
		mispredict = predTaken != in.Taken || btbWrong
		if mispredict {
			if dirWrong {
				c.stats.MispredDirection++
			} else {
				c.stats.MispredBTB++
			}
		}
		if c.cfg.SpecUpdate {
			c.pred.Update(in.PC, in.Taken)
			if in.Taken {
				c.btb.Insert(in.PC, in.Target)
			}
		}
	case trace.Call:
		tgt, hit := c.btb.Lookup(in.PC)
		mispredict = !hit || tgt != in.Target
		if mispredict {
			c.stats.MispredBTB++
		}
		// The return address (the call's fall-through, carried in
		// Addr) is pushed regardless of the target prediction.
		c.ras.Push(in.Addr)
		if c.cfg.SpecUpdate {
			c.btb.Insert(in.PC, in.Target)
		}
	case trace.Return:
		tgt, ok := c.ras.Pop()
		mispredict = !ok || tgt != in.Target
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
	for ; n < c.cfg.Width && c.ifqLen > 0; n++ {
		f := &c.ifq[c.ifqHead]
		if c.rob.Full() {
			break
		}
		if f.instr.Class.IsMem() && !c.lsq.Alloc() {
			break
		}
		e := c.rob.Push()
		e.Instr = f.instr
		e.Seq = f.seq
		e.Mispredict = f.mispredict
		c.readyRing[f.seq&c.ringMask] = pipeline.NotReady
		if f.instr.CompID != 0 && c.shortcut != nil && c.shortcut.Hit(f.instr.CompID) {
			e.Issued = true
			e.Precomputed = true
			e.ReadyAt = c.cycle + 1
			c.readyRing[f.seq&c.ringMask] = e.ReadyAt
			c.stats.PrecompHits++
		}
		c.ifqHead++
		if c.ifqHead == len(c.ifq) {
			c.ifqHead = 0
		}
		c.ifqLen--
	}
	return n > 0
}

// operandsAt returns the cycle from which both source operands of e
// are available: pipeline.NotReady while a producer has not issued.
//
//pbcheck:hotpath
func (c *CPU) operandsAt(e *pipeline.Entry) int64 {
	at := int64(0)
	if d := e.Instr.Dep1; d > 0 {
		at = c.readyRing[(e.Seq-int64(d))&c.ringMask]
	}
	if d := e.Instr.Dep2; d > 0 {
		at = max(at, c.readyRing[(e.Seq-int64(d))&c.ringMask])
	}
	return at
}

// depsReady reports whether both source operands of e are available:
// operandsAt(e) <= c.cycle, but it stops at the first operand that is
// not. The issue scan calls it for every waiting entry in every cycle,
// and the early exit makes a full campaign about 9% faster than
// calling operandsAt there.
//
//pbcheck:hotpath
func (c *CPU) depsReady(e *pipeline.Entry) bool {
	if d := e.Instr.Dep1; d > 0 {
		if c.readyRing[(e.Seq-int64(d))&c.ringMask] > c.cycle {
			return false
		}
	}
	if d := e.Instr.Dep2; d > 0 {
		if c.readyRing[(e.Seq-int64(d))&c.ringMask] > c.cycle {
			return false
		}
	}
	return true
}

// issueStage selects up to Width ready instructions, oldest first,
// subject to functional-unit and memory-port availability. It reports
// whether it issued any.
//
//pbcheck:hotpath
func (c *CPU) issueStage() bool {
	issued := 0
	portsUsed := 0
	// Walk the ROB as its two contiguous windows (oldest first) rather
	// than via At(i): the windows are stable for the whole scan, so the
	// per-entry wrap arithmetic disappears from the hottest loop.
	older, younger := c.rob.Window()
	for _, win := range [2][]pipeline.Entry{older, younger} {
		for i := range win {
			e := &win[i]
			if e.Issued || !c.depsReady(e) {
				continue
			}
			var ready int64
			switch u := &c.units[e.Instr.Class]; {
			case u.pool != nil:
				if !u.pool.TryIssue(c.cycle, u.interval) {
					continue
				}
				ready = c.cycle + u.lat
			case e.Instr.Class == trace.Load:
				if portsUsed >= c.cfg.MemPorts {
					continue
				}
				portsUsed++
				ready = c.cycle + c.hier.DataAccess(e.Instr.Addr, c.cycle)
			default: // trace.Store
				if portsUsed >= c.cfg.MemPorts {
					continue
				}
				portsUsed++
				// Address generation and store-buffer write; the cache is
				// updated at commit.
				ready = c.cycle + int64(c.cfg.L1DLat)
			}
			e.Issued = true
			e.ReadyAt = ready
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
		in := &e.Instr
		switch {
		case in.Class == trace.Load:
			c.stats.Loads++
			c.lsq.Release()
		case in.Class == trace.Store:
			c.stats.Stores++
			c.lsq.Release()
			// The store drains to the cache now; it occupies the DRAM
			// channel on a miss but does not stall retirement.
			c.hier.DataAccess(in.Addr, c.cycle)
		case in.Class.IsControl():
			c.stats.ControlInstrs++
			if e.Mispredict {
				c.stats.Mispredicts++
			}
			if c.pred != nil && !c.cfg.SpecUpdate {
				if in.Class == trace.Branch {
					c.pred.Update(in.PC, in.Taken)
				}
				if in.Taken && in.Class != trace.Return {
					c.btb.Insert(in.PC, in.Target)
				}
			}
		case in.Class.IsCompute() && in.CompID != 0 && c.shortcut != nil:
			c.shortcut.Observe(in.CompID)
		}
		c.rob.PopHead()
		c.committed++
	}
	return n > 0
}
