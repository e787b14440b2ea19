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
// data), which is all a timing model needs. A set-associative cache
// scans its set's ways (at most 8 in every Table 8 geometry); a
// single-set one, every fully-associative TLB and BTB, looks its tags
// up in an index instead (assocIndex).
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
	fa        assocIndex // used when sets == 1
}

// New builds a cache from the configuration. Size must be a positive
// multiple of BlockBytes, and BlockBytes a power of two; Assoc must
// divide the block count (or be FullyAssociative).
func New(cfg Config) (*Cache, error) {
	return newCache(cfg, spareArrays{})
}

// spareArrays holds the arrays of one released cache: its lines and,
// for a single-set cache, its index.
type spareArrays struct {
	lines []line
	index []int32
}

// newCache is New, taking its arrays from spare when spare's
// capacity holds them (they are cleared) and allocating them
// otherwise.
func newCache(cfg Config, spare spareArrays) (*Cache, error) {
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
	var lines []line
	if n := sets * assoc; cap(spare.lines) >= n {
		lines = spare.lines[:n]
		clear(lines)
	} else {
		lines = make([]line, n)
	}
	c := &Cache{
		sets:      sets,
		ways:      assoc,
		blockBits: blockBits,
		setMask:   uint64(sets - 1),
		lines:     lines,
		policy:    cfg.Policy,
		rng:       0x9e3779b97f4a7c15,
	}
	if sets == 1 {
		c.fa = newAssocIndex(assoc, spare.index)
		c.fa.rebuild(lines)
	} else {
		c.fa.buf = spare.index // unused; release hands it on
	}
	return c, nil
}

// release hands the cache's arrays over for reuse and leaves it with
// none, so any later access panics.
func (c *Cache) release() spareArrays {
	s := spareArrays{lines: c.lines, index: c.fa.buf}
	c.lines, c.fa = nil, assocIndex{}
	return s
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
	_, hit := c.access(addr)
	if !hit {
		c.stats.Misses++
	}
	return hit
}

// AccessRun is n >= 1 Access calls for addr in a row: the first may
// miss, and the rest hit the line it left, which under LRU ends
// stamped as the last. It reports whether the first hit.
//
//pbcheck:hotpath
func (c *Cache) AccessRun(addr, n uint64) bool {
	c.stats.Accesses += n
	i, hit := c.access(addr)
	if !hit {
		c.stats.Misses++
	}
	if n > 1 {
		c.clock += n - 1
		if c.policy == LRU {
			c.touch(i, c.clock)
		}
	}
	return hit
}

// Insert is Access without the counters: it returns the index of the
// line that holds addr's block afterwards, allocating it on a miss.
// Line indices run over [0, Sets()*Ways()), so a caller can keep a
// payload per line in a parallel array (a BTB's targets).
//
//pbcheck:hotpath
func (c *Cache) Insert(addr uint64) int {
	i, _ := c.access(addr)
	return i
}

// Lookup is Insert without the allocation: it returns the index of
// the line holding addr's block, marked used as Access marks it, or
// -1 when the block is absent.
//
//pbcheck:hotpath
func (c *Cache) Lookup(addr uint64) int {
	c.clock++
	block := addr >> c.blockBits
	i := c.find(block)
	if i >= 0 && c.policy == LRU {
		c.touch(i, c.clock)
	}
	return i
}

// access advances the clock and probes for addr's block: a hit marks
// its line used (LRU), a miss fills a way. It returns the line's index
// and whether the probe hit.
//
//pbcheck:hotpath
func (c *Cache) access(addr uint64) (int, bool) {
	c.clock++
	block := addr >> c.blockBits
	if c.sets == 1 {
		if w := c.fa.find(c.lines, block); w >= 0 {
			if c.policy == LRU {
				c.touch(w, c.clock)
			}
			return w, true
		}
		return c.fillAssoc(block, c.clock), false
	}
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if ln := &set[w]; ln.meta != 0 && ln.tag == block {
			if c.policy == LRU {
				ln.meta = c.clock
			}
			return base + w, true
		}
	}
	return base + c.fill(set, block, c.clock), false
}

// find returns the index of the line holding block, or -1.
//
//pbcheck:hotpath
func (c *Cache) find(block uint64) int {
	if c.sets == 1 {
		return c.fa.find(c.lines, block)
	}
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].meta != 0 && set[w].tag == block {
			return base + w
		}
	}
	return -1
}

// touch stamps the valid line i as used at stamp, the newest.
//
//pbcheck:hotpath
func (c *Cache) touch(i int, stamp uint64) {
	c.lines[i].meta = stamp
	if c.sets == 1 {
		c.fa.touch(i)
	}
}

// Contains reports whether the block holding addr is present, without
// updating any state or statistics.
//
//pbcheck:hotpath
func (c *Cache) Contains(addr uint64) bool {
	return c.find(addr>>c.blockBits) >= 0
}

// fillAssoc is fill for a single-set cache, by its index: the lowest
// invalid way, else the list's head (the smallest stamp) under LRU and
// FIFO or the Random draw, exactly the way fill's scan selects. It
// returns the way.
//
//pbcheck:hotpath
func (c *Cache) fillAssoc(block, stamp uint64) int {
	x := &c.fa
	var w int
	if n := len(x.free); n > 0 {
		w = int(x.free[n-1])
		x.free = x.free[:n-1]
	} else {
		if c.policy == Random {
			w = c.randomWay()
		} else {
			w = int(x.head)
		}
		x.evict(c.lines, w)
	}
	c.lines[w] = line{tag: block, meta: stamp}
	x.add(c.lines, w)
	return w
}

// fill victimizes a way of the set and installs the block with the
// given stamp, returning the way. Invalid lines carry stamp 0, so the
// smallest-stamp scan of the LRU/FIFO policies selects the first
// invalid way exactly as an explicit invalid-first pass would.
//
//pbcheck:hotpath
func (c *Cache) fill(set []line, block, stamp uint64) int {
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
	set[victim] = line{tag: block, meta: stamp} // LRU: last use; FIFO: arrival time
	return victim
}

// lapInPlace writes the state a sequential warming lap over [start,
// end), start < end, leaves in the cache. The lap probes start and
// then every multiple of its stride, 1<<sh bytes, below end; unlike
// lap, it keeps whatever the cache held, and several probes may share
// a block. The access counters are kept; the clock advances by one per
// probe. A block's probes form a run: the first misses (unless the
// block was resident) and the rest hit the line it touched, so the
// line ends up stamped as the run's last probe under LRU and its first
// under FIFO.
//
// With blocks no smaller than the stride, the lap touches every block
// from start's to end-1's, in ascending order, so block b0+j is fill
// j>>log2(sets) of its set, and every fill carries a stamp above any
// the set held before. LRU and FIFO evict the smallest stamp, lowest
// way first, so a set that starts empty takes fill m in way m%ways and
// keeps only its last ways fills: those are written directly. A set
// that holds lines is walked fill by fill (lapFill) until it has taken
// ways fills. If none of them hit, they evicted every line the set
// held; fill m then lands where fill m-ways did, so each way takes
// the last fill congruent to the one it holds. A set where a lap block
// was already resident is walked to the end. Random replacement, and
// blocks smaller than the stride, have no such form: they take one
// real access per block plus its run's repeat hits (walkRuns).
//
//pbcheck:hotpath
func (c *Cache) lapInPlace(start, end uint64, sh uint) {
	q := start >> sh
	n := ceilShift(end, sh) - q
	if c.policy == Random || c.blockBits < sh {
		c.walkRuns(start, end, sh, q, n)
		return
	}
	b0 := start >> c.blockBits
	l := lapRuns{
		b0:    b0,
		nb:    (end-1)>>c.blockBits - b0 + 1,
		q:     q,
		n:     n,
		d:     c.blockBits - sh,
		clock: c.clock,
		lru:   c.policy == LRU,
	}
	setBits := uint(bits.Len64(c.setMask))
	ways := uint64(c.ways)
	fresh := c.clock == 0 // never touched: every set is empty
	for r := uint64(0); r < min(l.nb, uint64(c.sets)); r++ {
		base := int((l.b0+r)&c.setMask) * c.ways
		set := c.lines[base : base+c.ways]
		fills := (l.nb-r-1)>>setBits + 1
		if fresh || emptySet(set) {
			for m := fills - min(fills, ways); m < fills; m++ {
				j := r + m<<setBits
				set[m%ways] = line{tag: l.b0 + j, meta: l.stamp(j)}
			}
			continue
		}
		m, hit := uint64(0), false
		for ; m < fills && (m < ways || hit); m++ {
			j := r + m<<setBits
			hit = c.lapFill(set, l.b0+j, l.stamp(j)) || hit
		}
		if m == fills {
			continue
		}
		for w := range set {
			m0 := (set[w].tag - l.b0 - r) >> setBits
			j := r + (m0+(fills-1-m0)/ways*ways)<<setBits
			set[w] = line{tag: l.b0 + j, meta: l.stamp(j)}
		}
	}
	c.clock += n
	if c.sets == 1 {
		c.fa.rebuild(c.lines)
	}
}

// lapRuns locates the runs of an in-place lap (see lapInPlace) over a
// cache whose blocks are 1<<d probes long: block b0+j, j < nb, holds
// the run of probes from (b0+j)<<d - q (probe 0 for j = 0) to the next
// block's first probe, or to probe n-1 for the last block. clock is
// the cache's clock before the lap, so probe i is stamped clock+i+1.
type lapRuns struct {
	b0, nb, q, n, clock uint64
	d                   uint
	lru                 bool
}

// stamp returns the stamp the lap leaves on block b0+j's line: its
// run's last probe under LRU, its first under FIFO.
//
//pbcheck:hotpath
func (l lapRuns) stamp(j uint64) uint64 {
	if l.lru {
		if j == l.nb-1 {
			return l.clock + l.n
		}
		return l.clock + (l.b0+j+1)<<l.d - l.q
	}
	if j == 0 {
		return l.clock + 1
	}
	return l.clock + (l.b0+j)<<l.d - l.q + 1
}

// emptySet reports whether every way of the set is invalid.
//
//pbcheck:hotpath
func emptySet(set []line) bool {
	for w := range set {
		if set[w].meta != 0 {
			return false
		}
	}
	return true
}

// lapFill is one block's run of an in-place lap on its set under LRU
// or FIFO: a resident line hits (and, under LRU, takes the stamp);
// otherwise the block fills the smallest-stamp way. It reports whether
// the block was resident.
//
//pbcheck:hotpath
func (c *Cache) lapFill(set []line, block, stamp uint64) bool {
	if i := c.find(block); i >= 0 {
		if c.policy == LRU {
			c.touch(i, stamp)
		}
		return true
	}
	if c.sets == 1 {
		c.fillAssoc(block, stamp)
	} else {
		c.fill(set, block, stamp)
	}
	return false
}

// walkRuns is lapInPlace by one real access per block of the lap (its
// n probes from q on). Only Random replacement reaches it with runs
// longer than one probe (blocks smaller than the stride take one probe
// each), and a Random hit changes nothing but the clock, so the run's
// repeat hits only advance it.
//
//pbcheck:hotpath
func (c *Cache) walkRuns(start, end uint64, sh uint, q, n uint64) {
	stats := c.stats
	for addr, i := start, uint64(0); i < n; addr = (q + i) << sh {
		lim := end
		if next := (addr>>c.blockBits + 1) << c.blockBits; next > addr && next < lim {
			lim = next
		}
		run := ceilShift(lim, sh) - q - i // probes of the lap inside addr's block
		c.Access(addr)
		c.clock += run - 1
		i += run
	}
	c.stats = stats
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
	if c.sets == 1 {
		c.fa.rebuild(c.lines)
	}
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
	clear(c.lines)
	c.clock = 0
	c.stats = Stats{}
	if c.sets == 1 {
		c.fa.rebuild(c.lines)
	}
}
