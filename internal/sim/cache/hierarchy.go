package cache

import (
	"fmt"
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
}

// spareLines holds the line arrays of one released hierarchy: L1I,
// L1D, L2, ITLB, DTLB.
type spareLines [5][]line

// free is the free list of released hierarchies' line arrays, bounded
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
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.L1I, err = newCache(cfg.L1I, spare[0]); err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	if h.L1D, err = newCache(cfg.L1D, spare[1]); err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	if h.L2, err = newCache(cfg.L2, spare[2]); err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if h.ITLB, err = newTLB(cfg.ITLBEntries, cfg.ITLBAssoc, cfg.PageBytes, spare[3]); err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	if h.DTLB, err = newTLB(cfg.DTLBEntries, cfg.DTLBAssoc, cfg.PageBytes, spare[4]); err != nil {
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
		spare[i], c.lines = c.lines, nil
	}
	h.L1I, h.L1D, h.L2, h.ITLB, h.DTLB = nil, nil, nil, nil, nil
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
