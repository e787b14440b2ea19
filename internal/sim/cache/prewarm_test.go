package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// lapRanges returns the [start, end) ranges a lap over units of
// 1<<bits bytes is checked on, for a structure of the given capacity
// in units: unaligned starts and ends, a range shorter than one sweep
// of the sets, exactly the capacity, far beyond it, and one ending at
// the top of the address space, where the walk's next probe would
// wrap.
func lapRanges(bits uint, sets, capacity uint64) [][2]uint64 {
	unit := uint64(1) << bits
	step := max(unit, 16)
	c := capacity * unit
	top := ^uint64(0)
	half := max(sets/2, 1)
	return [][2]uint64{
		{0, 1},
		{5, 6},
		{0, half * step},
		{3*step + 7, 3*step + 7 + half*step},
		{0, c},
		{64 * step, 64*step + c},
		{9, c + 9},
		{0x1000_0003, 0x1000_0003 + 5*c + 17},
		{1 << 32, 1<<32 + 37*c + 3},
		{top - 3*step - 40, top},
		{top - c - 11, top - 2},
	}
}

// TestLapMatchesWalkBareCaches checks Cache.lap against probing every
// stride on bare caches: geometries from direct-mapped
// to fully associative (including a non-power-of-two way count), units
// below, at and above the 16-byte stride floor, TLB-style caches whose
// blocks are page numbers, and both an empty cache and one already
// holding unrelated lines (which the lap empties first).
func TestLapMatchesWalkBareCaches(t *testing.T) {
	type geom struct {
		size, assoc, block int
		bits               uint // probe block = addr >> bits
	}
	geoms := []geom{
		{256, 1, 16, 4},
		{512, 2, 32, 5},
		{768, 3, 16, 4},
		{1024, 8, 64, 6},
		{1024, FullyAssociative, 64, 6},
		{64, 2, 4, 2},  // 4 B lines: one probe per 16 bytes, every 4th block
		{128, 4, 8, 3}, // 8 B lines
		{32, 2, 1, 12}, // TLB: 32 entries, 4 KB pages
		{64, FullyAssociative, 1, 22},
		{16, 4, 1, 2}, // TLB with 4 B pages, below the stride floor
		{8, 1, 1, 0},  // 1 B units: s = 16 >= sets
	}
	for _, g := range geoms {
		cfg := Config{SizeBytes: g.size, Assoc: g.assoc, BlockBytes: g.block}
		probe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range lapRanges(g.bits, uint64(probe.sets), uint64(probe.sets*probe.ways)) {
			for _, touched := range []bool{false, true} {
				name := fmt.Sprintf("%+v/bits=%d/[%#x,%#x)/touched=%v", cfg, g.bits, r[0], r[1], touched)
				lap, walk := mustCache(t, cfg), mustCache(t, cfg)
				if touched {
					for _, c := range []*Cache{lap, walk} {
						for a := uint64(0); a < 40; a++ {
							c.Access(a * 0x9e3779b97f4a7c15)
						}
					}
				}
				lap.lap(r[0], r[1], g.bits)
				bareWalk(walk, r[0], r[1], g.bits)
				if d := diffCache(lap, walk); d != "" {
					t.Fatalf("%s: lap differs from walk: %s", name, d)
				}
			}
		}
	}
}

// TestPrewarmMatchesWalk checks Hierarchy.prewarm against the
// per-block walk on hierarchies the PB geometries do not reach: an L1
// block below the 16-byte stride floor, an L2 block smaller than the
// L1 block, 2-way L1 and 4-way L2 sets, pages below the stride floor,
// empty and address-wrapping ranges, and laps over a hierarchy that
// live traffic or an earlier lap already touched.
func TestPrewarmMatchesWalk(t *testing.T) {
	base := testHierCfg()
	variants := map[string]func(*HierarchyConfig){
		"base":          func(*HierarchyConfig) {},
		"L1 8B blocks":  func(c *HierarchyConfig) { c.L1D.BlockBytes, c.L1I.BlockBytes = 8, 4 },
		"L2 below L1":   func(c *HierarchyConfig) { c.L1D.BlockBytes, c.L1I.BlockBytes, c.L2.BlockBytes = 128, 64, 32 },
		"L2 4way":       func(c *HierarchyConfig) { c.L2.Assoc = 4 },
		"L1 2way":       func(c *HierarchyConfig) { c.L1D.Assoc = 2 },
		"tiny pages":    func(c *HierarchyConfig) { c.PageBytes = 8 },
		"huge pages":    func(c *HierarchyConfig) { c.PageBytes = 4 << 20; c.DTLBAssoc = FullyAssociative },
		"small L2 8way": func(c *HierarchyConfig) { c.L2.SizeBytes, c.L2.Assoc, c.L2.BlockBytes = 8<<10, 8, 128 },
	}
	type lap struct {
		code        bool
		start, size uint64
	}
	sequences := map[string][]lap{
		"code then data": {{true, 0x400000, 24 << 10}, {false, 1 << 32, 300 << 10}},
		"unaligned":      {{true, 0x400007, 5000}, {false, 1<<32 + 13, 70001}},
		"short":          {{false, 1 << 32, 48}, {true, 0x400000, 16}},
		"empty":          {{false, 1 << 32, 0}, {true, 0x400000, 0}},
		"wrapping":       {{false, ^uint64(0) - 100, 4096}},
		"top of space":   {{false, ^uint64(0) - 5000, 5000}},
		"warmed twice": {
			{true, 0x400000, 8 << 10}, {false, 1 << 32, 64 << 10},
			{true, 0x400040, 12 << 10}, {false, 1<<32 + 4096, 9 << 10},
		},
		"touched then empty": {{false, 1 << 32, 64 << 10}, {false, 1 << 32, 0}},
	}
	for vname, mod := range variants {
		cfg := base
		mod(&cfg)
		for sname, seq := range sequences {
			for _, live := range []bool{false, true} {
				lapH, walkH := mustHier(t, cfg), mustHier(t, cfg)
				if live {
					// Traffic before warming: counters, DRAM accesses
					// and L2 contents must come through exactly as the
					// walk leaves them.
					for _, h := range []*Hierarchy{lapH, walkH} {
						for a := uint64(0); a < 64; a++ {
							h.DataAccess(1<<32+a*4160, int64(a))
							h.InstFetch(0x400000+a*96, int64(a))
						}
					}
				}
				for i, l := range seq {
					if l.code {
						lapH.PrewarmCode(l.start, l.size)
						walkH.WalkPrewarmCode(l.start, l.size)
					} else {
						lapH.PrewarmData(l.start, l.size)
						walkH.WalkPrewarmData(l.start, l.size)
					}
					if d := DiffHierarchy(lapH, walkH); d != "" {
						t.Fatalf("%s/%s/live=%v: after lap %d %+v: %s", vname, sname, live, i, l, d)
					}
				}
			}
		}
	}
}

// TestL2LapMatchesWalkRandomized checks the L2's in-place lap
// (Cache.lapInPlace) against the per-block walk on random hierarchies
// and random prior contents. GIVEN an L2 with a random geometry under
// L1 blocks above, at and below its own, and either empty, touched by
// random traffic, or holding blocks of the lap itself (the per-set
// walk to the end), WHEN a code or data lap runs over a random range,
// some wrapping past the top of the address space, THEN every field of
// the hierarchy equals the walk's.
func TestL2LapMatchesWalkRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	top := ^uint64(0)
	for trial := 0; trial < 1000; trial++ {
		cfg := testHierCfg()
		cfg.L2.BlockBytes = pick(16, 32, 64, 128, 256)
		cfg.L2.Assoc = pick(1, 2, 3, 4, 8, FullyAssociative)
		sets := pick(1, 2, 4, 16, 64)
		assoc := cfg.L2.Assoc
		if assoc == FullyAssociative {
			assoc = pick(4, 16)
		}
		cfg.L2.SizeBytes = sets * assoc * cfg.L2.BlockBytes
		cfg.L1D.BlockBytes = pick(8, 16, 32, 64, 128)
		cfg.L1I.BlockBytes = pick(8, 16, 32, 64)
		capacity := uint64(cfg.L2.SizeBytes)

		var start uint64
		switch rng.Intn(4) {
		case 0:
			start = top - uint64(rng.Intn(int(4*capacity))) // may wrap: then the lap changes nothing
		case 1:
			start = uint64(rng.Intn(1 << 20))
		default:
			start = 1<<32 + uint64(rng.Intn(1<<16))
		}
		size := uint64(rng.Intn(int(6*capacity))) + 1
		code := rng.Intn(2) == 0

		lapH, walkH := mustHier(t, cfg), mustHier(t, cfg)
		prior := rng.Intn(3) // 0: empty, 1: unrelated traffic, 2: traffic inside the lap
		for i := 0; prior > 0 && i < 4*int(capacity)/cfg.L2.BlockBytes; i++ {
			addr := uint64(rng.Intn(1 << 24))
			if prior == 2 {
				addr = start + uint64(rng.Int63n(int64(size)))
			}
			for _, h := range []*Hierarchy{lapH, walkH} {
				h.DataAccess(addr, int64(i))
			}
		}
		name := fmt.Sprintf("trial %d: L2 %+v, L1 blocks %d/%d, prior %d, code=%v, [%#x, +%d)",
			trial, cfg.L2, cfg.L1I.BlockBytes, cfg.L1D.BlockBytes, prior, code, start, size)
		if code {
			lapH.PrewarmCode(start, size)
			walkH.WalkPrewarmCode(start, size)
		} else {
			lapH.PrewarmData(start, size)
			walkH.WalkPrewarmData(start, size)
		}
		if d := DiffHierarchy(lapH, walkH); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
}
