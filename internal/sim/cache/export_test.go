package cache

import (
	"fmt"
	"reflect"
)

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
		emptyIfTouched(l1)
		emptyIfTouched(tlb.cache)
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

func emptyIfTouched(c *Cache) {
	if c.clock != 0 {
		stats := c.stats
		c.Flush()
		c.stats = stats
	}
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
	emptyIfTouched(c)
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

// DiffHierarchy names the first field in which two hierarchies differ,
// or returns "" when they are identical in every field.
func DiffHierarchy(a, b *Hierarchy) string {
	if !reflect.DeepEqual(a.cfg, b.cfg) {
		return "cfg"
	}
	if a.DRAMAccesses != b.DRAMAccesses {
		return fmt.Sprintf("DRAMAccesses %d != %d", a.DRAMAccesses, b.DRAMAccesses)
	}
	if a.ITLB.pageBits != b.ITLB.pageBits || a.DTLB.pageBits != b.DTLB.pageBits {
		return "TLB pageBits"
	}
	for _, c := range []struct {
		name string
		x, y *Cache
	}{
		{"L1I", a.L1I, b.L1I}, {"L1D", a.L1D, b.L1D}, {"L2", a.L2, b.L2},
		{"ITLB", a.ITLB.cache, b.ITLB.cache}, {"DTLB", a.DTLB.cache, b.DTLB.cache},
	} {
		if d := diffCache(c.x, c.y); d != "" {
			return c.name + ": " + d
		}
	}
	return ""
}

// diffCache names the first field in which two caches differ. It
// compares the line arrays directly and every other field by
// reflect.DeepEqual, which on a multi-megabyte line array would cost
// far more than the laps under test.
func diffCache(a, b *Cache) string {
	if len(a.lines) != len(b.lines) {
		return fmt.Sprintf("%d lines != %d", len(a.lines), len(b.lines))
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return fmt.Sprintf("line %d (set %d way %d): %+v != %+v", i, i/a.ways, i%a.ways, a.lines[i], b.lines[i])
		}
	}
	x, y := *a, *b
	x.lines, y.lines = nil, nil
	if !reflect.DeepEqual(x, y) {
		return fmt.Sprintf("%+v != %+v", x, y)
	}
	return ""
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
