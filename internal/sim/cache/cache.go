// Package cache models the parameterized memory-hierarchy structures
// of Table 8 of the paper: set-associative caches with configurable
// size, associativity, block size and replacement policy, translation
// lookaside buffers, and a DRAM channel with a first-block latency and
// a bandwidth-limited transfer time for the remaining chunks of a
// block.
package cache

import (
	"fmt"
	"math/bits"
)

// Replacement selects the victim-choice policy of a set.
type Replacement int

// Supported replacement policies. The paper uses LRU throughout; FIFO
// and Random are provided for ablation studies.
const (
	LRU Replacement = iota
	FIFO
	Random
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the number of ways; use FullyAssociative for a
	// fully-associative array.
	Assoc int
	// BlockBytes is the line size (power of two).
	BlockBytes int
	// Policy is the replacement policy.
	Policy Replacement
}

// FullyAssociative requests associativity equal to the number of
// blocks.
const FullyAssociative = -1

// Stats counts accesses and misses.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 when no accesses occurred).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one way of a set: the block tag plus its replacement stamp.
// meta is the LRU stamp or FIFO arrival time; 0 marks an invalid line
// (the clock is pre-incremented on every access, so a filled line
// always carries a stamp >= 1). Keeping tag and stamp in one 16-byte
// struct lets a set probe walk a single contiguous array instead of
// three parallel slices — one cache line of host memory covers a
// 4-way set.
type line struct {
	tag  uint64
	meta uint64
}

// Cache is a set-associative tag array. It tracks presence only (no
// data), which is all a timing model needs.
type Cache struct {
	sets      int
	ways      int
	blockBits uint
	setMask   uint64
	lines     []line // sets*ways entries, set-major
	clock     uint64
	policy    Replacement
	rng       uint64 // xorshift state for Random policy
	stats     Stats
}

// New builds a cache from the configuration. Size must be a positive
// multiple of BlockBytes, and BlockBytes a power of two; Assoc must
// divide the block count (or be FullyAssociative).
func New(cfg Config) (*Cache, error) {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d is not a positive power of two", cfg.BlockBytes)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%cfg.BlockBytes != 0 {
		return nil, fmt.Errorf("cache: size %d is not a positive multiple of block size %d", cfg.SizeBytes, cfg.BlockBytes)
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	assoc := cfg.Assoc
	if assoc == FullyAssociative || assoc > blocks {
		assoc = blocks
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d invalid", cfg.Assoc)
	}
	if blocks%assoc != 0 {
		return nil, fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, assoc)
	}
	sets := blocks / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockBytes {
		blockBits++
	}
	return &Cache{
		sets:      sets,
		ways:      assoc,
		blockBits: blockBits,
		setMask:   uint64(sets - 1),
		lines:     make([]line, sets*assoc),
		policy:    cfg.Policy,
		rng:       0x9e3779b97f4a7c15,
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// BlockBytes returns the line size.
func (c *Cache) BlockBytes() int { return 1 << c.blockBits }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the block containing addr, allocating it on a miss,
// and reports whether the access hit. The timing consequences of a
// miss are the caller's concern.
//
//pbcheck:hotpath
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	c.clock++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if ln := &set[w]; ln.meta != 0 && ln.tag == block {
			if c.policy == LRU {
				ln.meta = c.clock
			}
			return true
		}
	}
	c.stats.Misses++
	c.fill(set, block)
	return false
}

// Contains reports whether the block holding addr is present, without
// updating any state or statistics.
//
//pbcheck:hotpath
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].meta != 0 && set[w].tag == block {
			return true
		}
	}
	return false
}

// fill victimizes a way of the set and installs the block. Invalid
// lines carry stamp 0, so the smallest-stamp scan of the LRU/FIFO
// policies selects the first invalid way exactly as an explicit
// invalid-first pass would.
//
//pbcheck:hotpath
func (c *Cache) fill(set []line, block uint64) {
	victim := 0
	switch c.policy {
	case Random:
		// Invalid ways first, then xorshift-random.
		found := false
		for w := range set {
			if set[w].meta == 0 {
				victim, found = w, true
				break
			}
		}
		if !found {
			victim = c.randomWay()
		}
	default: // LRU and FIFO both evict the smallest stamp
		oldest := set[0].meta
		for w := 1; w < len(set); w++ {
			if set[w].meta < oldest {
				victim, oldest = w, set[w].meta
			}
		}
	}
	set[victim] = line{tag: block, meta: c.clock} // LRU: last use; FIFO: arrival time
}

// accessRun is n >= 1 consecutive Accesses of addr. All but the first
// hit the line the first one touched, so they only advance the clock
// and the access count and, under LRU, restamp that line.
//
//pbcheck:hotpath
func (c *Cache) accessRun(addr, n uint64) {
	c.Access(addr)
	if n == 1 {
		return
	}
	c.clock += n - 1
	c.stats.Accesses += n - 1
	if c.policy != LRU {
		return
	}
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].meta != 0 && set[w].tag == block {
			set[w].meta = c.clock
			return
		}
	}
}

// lap writes the state a sequential warming lap over [start, end),
// start < end, leaves in the cache when it starts empty; a cache that
// was touched since it was built or flushed is emptied first (the
// access counters are kept). The lap probes start and then every
// multiple of its stride, 1<<lapShift(unit) bytes, below end, and a
// probe of address a touches block a>>unit (unit is the line size's
// log2 for a cache, the page size's for a TLB, whose blocks are page
// numbers).
//
// The blocks are distinct and ascending: b0 = start>>unit, then
// b_i = (q+i)*s for i >= 1, with q = start/stride and s = stride>>unit,
// so every probe misses and fills. Probes 1.. revisit a set every
// period = max(1, sets/s) probes, so b_i is the rank-th fill of its
// set with rank = (i-1)/period, plus one when b0 shares the set. The
// k-th fill of a set lands in way k under every policy while the set
// has an invalid way; after that LRU and FIFO evict the oldest fill,
// which is way k%ways again, and Random draws its victim from the
// xorshift stream. Probe i installs stamp clock+i+1, and the clock
// advances by one per probe. Under LRU and FIFO only the last ways
// fills of each set survive: b0 and the probes from n-period*ways on.
// Writing those in probe order reproduces every surviving line, since
// a later write to the same (set, way) is exactly the fill that
// evicted the earlier one. Random has no closed form for its victims,
// so it places every probe in order, without the per-probe set scan.
//
//pbcheck:hotpath
func (c *Cache) lap(start, end uint64, unit uint) {
	if c.clock != 0 {
		clear(c.lines)
		c.clock = 0
	}
	sh := lapShift(unit)
	q := start >> sh
	n := ceilShift(end, sh) - q
	sBits := sh - unit                          // log2 s
	setBits := uint(bits.Len64(c.setMask))      // log2 sets
	periodBits := setBits - min(setBits, sBits) // log2 period
	first := uint64(1)
	if span := uint64(c.ways) << periodBits; c.policy != Random && n > span {
		first = n - span
	}
	b0 := start >> unit
	c.install(b0, 0, 0)
	for i := first; i < n; i++ {
		b := (q + i) << sBits
		rank := (i - 1) >> periodBits
		if (b^b0)&c.setMask == 0 {
			rank++
		}
		c.install(b, rank, i)
	}
	c.clock += n
}

// install places block as the rank-th fill of its set during a lap
// (see lap), stamped as probe i of the lap.
//
//pbcheck:hotpath
func (c *Cache) install(block, rank, i uint64) {
	way := int(rank % uint64(c.ways))
	if rank >= uint64(c.ways) && c.policy == Random {
		way = c.randomWay()
	}
	c.lines[int(block&c.setMask)*c.ways+way] = line{tag: block, meta: c.clock + i + 1}
}

// randomWay advances the Random policy's xorshift stream and returns
// the victim way it selects.
//
//pbcheck:hotpath
func (c *Cache) randomWay() int {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return int(c.rng % uint64(c.ways))
}

// Flush invalidates every line and clears statistics.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.clock = 0
	c.stats = Stats{}
}
