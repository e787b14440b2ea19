package cache

import (
	"fmt"
	"math"
	"runtime"
)

// HierarchyConfig wires the full memory system of Table 8: split L1
// instruction/data caches, a unified L2, split instruction/data TLBs,
// and one DRAM channel.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	// Latencies in cycles for a hit in each structure.
	L1ILatency, L1DLatency, L2Latency int
	// ITLB / DTLB geometry.
	ITLBEntries, ITLBAssoc int
	DTLBEntries, DTLBAssoc int
	PageBytes              uint64
	// ITLBLatency / DTLBLatency are the page-walk penalties charged on
	// a TLB miss.
	ITLBLatency, DTLBLatency int
	// MemLatencyFirst is the DRAM latency of the first chunk;
	// MemLatencyRest the per-chunk latency of the remainder of a block
	// (the paper couples it as 0.02 x first). MemBandwidthBytes is the
	// chunk width.
	MemLatencyFirst, MemLatencyRest int
	MemBandwidthBytes               int
}

// Hierarchy is the runtime memory system. It is single-threaded, like
// the simulator that owns it.
//
// DRAM follows the SimpleScalar model the paper used: every L2 miss
// pays the first-chunk latency plus a bandwidth-limited transfer time
// for the rest of the block, and concurrent misses overlap freely (no
// channel queueing) -- memory-level parallelism is limited by the
// processor's ROB, LSQ and memory ports instead.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
	// DRAMAccesses counts block transfers from memory.
	DRAMAccesses uint64
	// iMiss logs the L1I misses of a functional warming window in
	// position order; the L2 has taken the first iDone.
	iMiss []miss
	iDone int
	// itlb, dtlb and l1d hold the run of consecutive warming accesses
	// to one page or block that the structure has yet to take.
	itlb, dtlb, l1d warmRun
}

// warmRun is n consecutive warming accesses to the block of addr, the
// first made by the instruction at pos.
type warmRun struct {
	addr uint64
	pos  uint32
	n    uint64
}

// miss is an L1I miss a functional warming pass leaves for the L2:
// the address and the position, in the warming window, of the
// instruction that made it.
type miss struct {
	addr uint64
	pos  uint32
}

// spareLines holds the arrays of one released hierarchy: those of the
// L1I, L1D, L2, ITLB and DTLB, and its warming log.
type spareLines struct {
	caches [5]spareArrays
	iMiss  []miss
}

// free is the free list of released hierarchies' arrays, bounded
// at one hierarchy per processor that may be simulating. A hierarchy
// released when it is full is left to the garbage collector. It is a
// channel, not a sync.Pool: a pool's victim generation keeps a second
// set of arrays, up to 2 MiB per hierarchy, alive across each
// collection.
var free = make(chan spareLines, runtime.GOMAXPROCS(0))

// NewHierarchy validates the configuration and builds all arrays,
// reusing those of a released hierarchy (Release) when the free list
// holds one, in which case they are cleared first.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MemBandwidthBytes <= 0 {
		return nil, fmt.Errorf("cache: memory bandwidth %d invalid", cfg.MemBandwidthBytes)
	}
	if cfg.MemLatencyFirst < 1 || cfg.MemLatencyRest < 0 {
		return nil, fmt.Errorf("cache: memory latencies (%d, %d) invalid", cfg.MemLatencyFirst, cfg.MemLatencyRest)
	}
	var spare spareLines
	select {
	case spare = <-free:
	default:
	}
	h := &Hierarchy{cfg: cfg, iMiss: spare.iMiss[:0]}
	var err error
	if h.L1I, err = newCache(cfg.L1I, spare.caches[0]); err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	if h.L1D, err = newCache(cfg.L1D, spare.caches[1]); err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	if h.L2, err = newCache(cfg.L2, spare.caches[2]); err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if h.ITLB, err = newTLB(cfg.ITLBEntries, cfg.ITLBAssoc, cfg.PageBytes, spare.caches[3]); err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	if h.DTLB, err = newTLB(cfg.DTLBEntries, cfg.DTLBAssoc, cfg.PageBytes, spare.caches[4]); err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	return h, nil
}

// Release returns the hierarchy's arrays to the free list for the
// next NewHierarchy and leaves h unusable: its structures are nil and
// theirs hold no lines, so any later access panics instead of sharing
// arrays with another hierarchy. Releasing twice does nothing. A
// hierarchy that is never released is garbage-collected as usual.
func (h *Hierarchy) Release() {
	if h.L2 == nil {
		return
	}
	var spare spareLines
	for i, c := range [...]*Cache{h.L1I, h.L1D, h.L2, h.ITLB.cache, h.DTLB.cache} {
		spare.caches[i] = c.release()
	}
	spare.iMiss = h.iMiss
	h.L1I, h.L1D, h.L2, h.ITLB, h.DTLB = nil, nil, nil, nil, nil
	h.iMiss = nil
	select {
	case free <- spare:
	default:
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// dramLatency charges a block transfer from DRAM starting at t,
// returning the cycle at which the block is available: first-chunk
// latency plus following-chunk latency for the rest of the L2 block.
//
//pbcheck:hotpath
func (h *Hierarchy) dramLatency(t int64) int64 {
	chunks := (h.L2.BlockBytes() + h.cfg.MemBandwidthBytes - 1) / h.cfg.MemBandwidthBytes
	transfer := int64(h.cfg.MemLatencyFirst)
	if chunks > 1 {
		transfer += int64(chunks-1) * int64(h.cfg.MemLatencyRest)
	}
	h.DRAMAccesses++
	return t + transfer
}

// PrewarmData warms the data-side hierarchy (DTLB, L1D, L2) with one
// sequential lap over [start, start+size) without charging any time,
// emulating the functional-warming phase of a long simulation: the
// measured phase then observes steady-state rather than compulsory
// misses. Statistics and DRAMAccesses are not affected. The lap probes
// the range at a stride of one L1 block (one page for the DTLB), never
// below 16 bytes. The L1D and DTLB are left exactly as that lap leaves
// them when they start empty: whatever they held before is discarded,
// so where a structure is smaller than the range the tail of the range
// stays resident, in LRU order. The L2 is lapped in place. An empty or
// address-wrapping range changes nothing.
func (h *Hierarchy) PrewarmData(start, size uint64) {
	h.prewarm(h.L1D, h.DTLB, start, size)
}

// PrewarmCode is PrewarmData for the instruction side (ITLB, L1I, L2).
func (h *Hierarchy) PrewarmCode(start, size uint64) {
	h.prewarm(h.L1I, h.ITLB, start, size)
}

// prewarm writes the state of the sequential warming lap in closed
// form instead of probing it block by block. Every probe of the lap
// lands in a distinct L1 block and TLB page, so on the emptied L1 and
// TLB every probe misses: each structure's final contents are written
// directly (Cache.lap). The L2 therefore sees every probe address and
// is lapped in place (Cache.lapInPlace). The result is bit-identical,
// field by field, to probing every block.
//
//pbcheck:hotpath
func (h *Hierarchy) prewarm(l1 *Cache, tlb *TLB, start, size uint64) {
	end := start + size
	if end <= start {
		return
	}
	l1.lap(start, end, l1.blockBits)
	tlb.cache.lap(start, end, tlb.pageBits)
	h.L2.lapInPlace(start, end, lapShift(l1.blockBits))
}

// lapShift is log2 of the address stride of a warming lap over units
// of 1<<bits bytes: one unit, but never below 16 bytes.
func lapShift(bits uint) uint {
	return max(bits, 4)
}

// ceilShift returns ⌈a / 2^s⌉ without overflowing near the top of the
// address space.
func ceilShift(a uint64, s uint) uint64 {
	if a&(1<<s-1) != 0 {
		return a>>s + 1
	}
	return a >> s
}

// InstFetch performs the timing of an instruction-block fetch
// beginning at the given cycle and returns its total latency in
// cycles: ITLB (plus page walk on a miss), L1I, then L2 and DRAM as
// needed.
//
//pbcheck:hotpath
func (h *Hierarchy) InstFetch(addr uint64, cycle int64) int64 {
	t := cycle
	if !h.ITLB.Access(addr) {
		t += int64(h.cfg.ITLBLatency)
	}
	t += int64(h.cfg.L1ILatency)
	if !h.L1I.Access(addr) {
		t += int64(h.cfg.L2Latency)
		if !h.L2.Access(addr) {
			t = h.dramLatency(t)
		}
	}
	return t - cycle
}

// DataAccess performs the timing of a load or store beginning at the
// given cycle and returns its total latency: DTLB (plus walk), L1D,
// then L2 and DRAM. Stores allocate like loads (write-allocate,
// write-back timing model).
//
//pbcheck:hotpath
func (h *Hierarchy) DataAccess(addr uint64, cycle int64) int64 {
	t := cycle
	if !h.DTLB.Access(addr) {
		t += int64(h.cfg.DTLBLatency)
	}
	t += int64(h.cfg.L1DLatency)
	if !h.L1D.Access(addr) {
		t += int64(h.cfg.L2Latency)
		if !h.L2.Access(addr) {
			t = h.dramLatency(t)
		}
	}
	return t - cycle
}

// WarmFetch is the ITLB and L1I part of InstFetch, for functional
// warming. An L1I miss is logged, with the position pos of the
// fetching instruction in the warming window, and reaches the L2 in
// position order with the L1D misses (WarmData). Consecutive fetches
// from one page reach the ITLB as one run (Cache.AccessRun). The
// hierarchy ends as the window's InstFetch and DataAccess calls,
// interleaved in instruction order, leave it once FinishWarm has run,
// which must come before any other use of it.
//
//pbcheck:hotpath
func (h *Hierarchy) WarmFetch(addr uint64, pos uint32) {
	h.ITLB.run(&h.itlb, addr)
	if !h.L1I.Access(addr) {
		h.iMiss = append(h.iMiss, miss{addr: addr, pos: pos})
	}
}

// WarmData is WarmFetch for DataAccess: the DTLB and L1D. It comes
// after every WarmFetch of the window. Consecutive accesses to one
// page reach the DTLB, and to one block the L1D, as one run; only a
// run's first access can miss, and its miss goes to the L2 after the
// logged L1I misses at or before its position, since an instruction
// fetches before it accesses data, and before the later ones.
//
//pbcheck:hotpath
func (h *Hierarchy) WarmData(addr uint64, pos uint32) {
	h.DTLB.run(&h.dtlb, addr)
	if r := &h.l1d; r.n > 0 && (addr^r.addr)>>h.L1D.blockBits == 0 {
		r.n++
		return
	}
	h.flushL1D()
	h.l1d = warmRun{addr: addr, pos: pos, n: 1}
}

// flushL1D hands the L1D its pending run, and the L2 the run's miss.
//
//pbcheck:hotpath
func (h *Hierarchy) flushL1D() {
	if r := h.l1d; r.n > 0 && !h.L1D.AccessRun(r.addr, r.n) {
		h.fetchMissesThrough(r.pos)
		h.warmL2(r.addr)
	}
	h.l1d.n = 0
}

// fetchMissesThrough hands the L2 the logged L1I misses at positions
// up to pos.
//
//pbcheck:hotpath
func (h *Hierarchy) fetchMissesThrough(pos uint32) {
	for ; h.iDone < len(h.iMiss) && h.iMiss[h.iDone].pos <= pos; h.iDone++ {
		h.warmL2(h.iMiss[h.iDone].addr)
	}
}

// warmL2 is the L2 part of an access that missed its L1, counting a
// DRAM transfer on an L2 miss.
//
//pbcheck:hotpath
func (h *Hierarchy) warmL2(addr uint64) {
	if !h.L2.Access(addr) {
		h.DRAMAccesses++
	}
}

// run adds an access to addr to the TLB's pending run r, handing the
// TLB the run first when addr is on another page.
//
//pbcheck:hotpath
func (t *TLB) run(r *warmRun, addr uint64) {
	if r.n > 0 && (addr^r.addr)>>t.pageBits == 0 {
		r.n++
		return
	}
	t.flush(r)
	*r = warmRun{addr: addr, n: 1}
}

// flush hands the TLB its pending run r.
//
//pbcheck:hotpath
func (t *TLB) flush(r *warmRun) {
	if r.n > 0 {
		t.cache.AccessRun(r.addr>>t.pageBits, r.n)
	}
	r.n = 0
}

// FinishWarm ends a functional warming window: it hands the TLBs and
// the L1D their pending runs and the L2 the L1I misses left in the log,
// which it empties. The L1s and TLBs see only their own accesses, so
// only the L2, which takes the misses of both L1s in instruction order,
// depends on how the window's fetches and data accesses interleave.
//
//pbcheck:hotpath
func (h *Hierarchy) FinishWarm() {
	h.ITLB.flush(&h.itlb)
	h.DTLB.flush(&h.dtlb)
	h.flushL1D()
	h.fetchMissesThrough(math.MaxUint32)
	h.iMiss, h.iDone = h.iMiss[:0], 0
}
