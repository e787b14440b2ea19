package cache

import (
	"math/rand"
	"testing"
)

// warmHierCfg is testHierCfg with fully-associative TLBs and an L2
// small enough for its misses to evict.
func warmHierCfg() HierarchyConfig {
	cfg := testHierCfg()
	cfg.L2 = Config{SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64}
	cfg.ITLBAssoc, cfg.DTLBAssoc = FullyAssociative, FullyAssociative
	return cfg
}

// TestWarmPassesMatchInterleaved: GIVEN a stream of instructions, each
// fetching, accessing data, both or neither, WHEN a window's fetches
// go through WarmFetch, then its data accesses through WarmData, then
// FinishWarm runs, window after window, THEN the hierarchy ends
// exactly as InstFetch and DataAccess interleaved in stream order
// leave it.
func TestWarmPassesMatchInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref, got := mustHier(t, warmHierCfg()), mustHier(t, warmHierCfg())
	// next is an address near the last one half the time, so that
	// runs of accesses to one block or page occur; code and data share
	// address bits, so the L2 sees both sides contend for its sets.
	next := func(last uint64) uint64 {
		if rng.Intn(2) == 0 {
			return last&^63 | uint64(rng.Intn(64))
		}
		return uint64(rng.Intn(64 << 10))
	}
	var code, data uint64
	for window := 0; window < 40; window++ {
		n := 1 + rng.Intn(600)
		var fetches, loads []miss
		for pos := uint32(0); pos < uint32(n); pos++ {
			if rng.Intn(3) > 0 {
				code = next(code)
				ref.InstFetch(code, 0)
				fetches = append(fetches, miss{code, pos})
			}
			if rng.Intn(2) > 0 {
				data = next(data)
				ref.DataAccess(data, 0)
				loads = append(loads, miss{data, pos})
			}
		}
		for _, f := range fetches {
			got.WarmFetch(f.addr, f.pos)
		}
		for _, d := range loads {
			got.WarmData(d.addr, d.pos)
		}
		got.FinishWarm()
		if d := DiffHierarchy(ref, got); d != "" {
			t.Fatalf("window %d: %s", window, d)
		}
	}
	if ref.DRAMAccesses == 0 || ref.L2.Stats().Misses == ref.L2.Stats().Accesses {
		t.Fatalf("the L2 never missed or never hit (%+v): the merge order went untested", ref.L2.Stats())
	}
}

// TestDiffHierarchyNamesDifferences: GIVEN two identical hierarchies,
// WHEN one differs in a single field, line or index entry, THEN
// DiffHierarchy names a difference, and none before.
func TestDiffHierarchyNamesDifferences(t *testing.T) {
	pair := func() (*Hierarchy, *Hierarchy) {
		a, b := mustHier(t, warmHierCfg()), mustHier(t, warmHierCfg())
		for i := uint64(0); i < 40; i++ {
			for _, h := range []*Hierarchy{a, b} {
				h.InstFetch(i*4096, 0)
				h.DataAccess(i*64, 0)
			}
		}
		return a, b
	}
	if a, b := pair(); DiffHierarchy(a, b) != "" {
		t.Fatalf("identical hierarchies differ: %s", DiffHierarchy(a, b))
	}
	itlb := func(h *Hierarchy) *assocIndex { return &h.ITLB.cache.fa }
	for name, mutate := range map[string]func(h *Hierarchy){
		"cfg":          func(h *Hierarchy) { h.cfg.L2Latency++ },
		"DRAM":         func(h *Hierarchy) { h.DRAMAccesses++ },
		"page size":    func(h *Hierarchy) { h.DTLB.pageBits++ },
		"line count":   func(h *Hierarchy) { h.L1I.lines = h.L1I.lines[:len(h.L1I.lines)-1] },
		"line":         func(h *Hierarchy) { h.L1D.lines[3].tag++ },
		"clock":        func(h *Hierarchy) { h.L2.clock++ },
		"slot":         func(h *Hierarchy) { x := itlb(h); x.slots[x.hash(h.ITLB.cache.lines[0].tag)] = 2 },
		"extra slot":   func(h *Hierarchy) { x := itlb(h); x.slots[indexOf(x.slots, 0)] = 1 },
		"list order":   func(h *Hierarchy) { x := itlb(h); x.touch(int(x.head)) },
		"back link":    func(h *Hierarchy) { x := itlb(h); x.prev[x.tail] = -1 },
		"tail":         func(h *Hierarchy) { x := itlb(h); x.tail = x.prev[x.tail] },
		"free ways":    func(h *Hierarchy) { x := &h.DTLB.cache.fa; x.free = x.free[:len(x.free)-1] },
		"DTLB counter": func(h *Hierarchy) { h.DTLB.cache.stats.Accesses++ },
	} {
		a, b := pair()
		mutate(b)
		if DiffHierarchy(a, b) == "" {
			t.Errorf("%s: the difference went unnoticed", name)
		}
	}
}

// indexOf returns the index of the first v in s, or -1.
func indexOf(s []int32, v int32) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
