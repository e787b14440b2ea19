package cache

import "fmt"

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

// NewHierarchy validates the configuration and allocates all arrays.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MemBandwidthBytes <= 0 {
		return nil, fmt.Errorf("cache: memory bandwidth %d invalid", cfg.MemBandwidthBytes)
	}
	if cfg.MemLatencyFirst < 1 || cfg.MemLatencyRest < 0 {
		return nil, fmt.Errorf("cache: memory latencies (%d, %d) invalid", cfg.MemLatencyFirst, cfg.MemLatencyRest)
	}
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.L1I, err = New(cfg.L1I); err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	if h.L1D, err = New(cfg.L1D); err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	if h.L2, err = New(cfg.L2); err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if h.ITLB, err = NewTLB(cfg.ITLBEntries, cfg.ITLBAssoc, cfg.PageBytes); err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	if h.DTLB, err = NewTLB(cfg.DTLBEntries, cfg.DTLBAssoc, cfg.PageBytes); err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	return h, nil
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
// directly (Cache.lap). The L2 therefore sees every probe address; the
// probes inside one L2 block are hits on the line the first of them
// just touched, so the L2 takes one real access per L2 block plus the
// run's repeat hits in one step (Cache.accessRun). The result is
// bit-identical, field by field, to probing every block.
//
//pbcheck:hotpath
func (h *Hierarchy) prewarm(l1 *Cache, tlb *TLB, start, size uint64) {
	end := start + size
	if end <= start {
		return
	}
	l1.lap(start, end, l1.blockBits)
	tlb.cache.lap(start, end, tlb.pageBits)
	l2, l2s := h.L2, h.L2.stats
	sh := lapShift(l1.blockBits)
	q := start >> sh
	n := ceilShift(end, sh) - q
	for addr, i := start, uint64(0); i < n; addr = (q + i) << sh {
		lim := end
		if next := (addr>>l2.blockBits + 1) << l2.blockBits; next > addr && next < lim {
			lim = next
		}
		run := ceilShift(lim, sh) - q - i // probes of the lap inside addr's L2 block
		l2.accessRun(addr, run)
		i += run
	}
	l2.stats = l2s
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
