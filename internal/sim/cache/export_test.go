package cache

// NewTLB builds a TLB with the given number of entries, associativity
// (FullyAssociative allowed) and page size in bytes (power of two).
func NewTLB(entries, assoc int, pageBytes uint64) (*TLB, error) {
	return newTLB(entries, assoc, pageBytes, spareArrays{})
}

// walkPrewarm is the per-block prewarm walk that Hierarchy.prewarm
// writes in closed form, kept as the oracle the lap form is checked
// against: it probes the L1 (and, on a miss, the L2) once per L1 block
// and the TLB once per page, at a stride never below 16 bytes, then
// restores every statistic and the DRAM counter. A non-empty range
// first empties an L1 or TLB that was touched, as prewarm documents.
func walkPrewarm(h *Hierarchy, l1 *Cache, tlb *TLB, start, size uint64) {
	dram := h.DRAMAccesses
	l1s, l2s, tlbs := l1.stats, h.L2.stats, tlb.cache.stats
	end := start + size
	if start < end {
		l1.empty()
		tlb.cache.empty()
	}
	step := max(uint64(l1.BlockBytes()), 16)
	for addr := start; addr < end; {
		if !l1.Access(addr) {
			h.L2.Access(addr)
		}
		next := (addr/step + 1) * step
		if next <= addr {
			break // address-space wraparound
		}
		addr = next
	}
	pstep := max(tlb.PageBytes(), 16)
	for addr := start; addr < end; {
		tlb.Access(addr)
		next := (addr/pstep + 1) * pstep
		if next <= addr {
			break // address-space wraparound
		}
		addr = next
	}
	h.DRAMAccesses = dram
	l1.stats, h.L2.stats, tlb.cache.stats = l1s, l2s, tlbs
}

// WalkPrewarmData is PrewarmData by the per-block walk.
func (h *Hierarchy) WalkPrewarmData(start, size uint64) {
	walkPrewarm(h, h.L1D, h.DTLB, start, size)
}

// WalkPrewarmCode is PrewarmCode by the per-block walk.
func (h *Hierarchy) WalkPrewarmCode(start, size uint64) {
	walkPrewarm(h, h.L1I, h.ITLB, start, size)
}

// bareWalk is Cache.lap by probing every stride of the lap (block
// addr>>bits at each), from an emptied cache when it was touched.
func bareWalk(c *Cache, start, end uint64, bits uint) {
	if start >= end {
		return
	}
	c.empty()
	stats := c.stats
	step := max(uint64(1)<<bits, 16)
	for addr := start; addr < end; {
		c.Access(addr >> bits << c.blockBits)
		next := (addr/step + 1) * step
		if next <= addr {
			break // address-space wraparound
		}
		addr = next
	}
	c.stats = stats
}

// DrainFreeList empties the free list of released hierarchies, so the
// next NewHierarchy calls build fresh arrays, and returns how many
// hierarchies it held.
func DrainFreeList() int {
	for n := 0; ; n++ {
		select {
		case <-free:
		default:
			return n
		}
	}
}

// FreeListLen returns how many released hierarchies the free list
// holds.
func FreeListLen() int { return len(free) }
