// Package cache models the parameterized memory-hierarchy structures
// of Table 8 of the paper: set-associative LRU caches with
// configurable size, associativity and block size, translation
// lookaside buffers, and a DRAM channel with a first-block latency and
// a bandwidth-limited transfer time for the remaining chunks of a
// block.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level. Every level replaces its least
// recently used line, as the paper's SimpleScalar caches do.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the number of ways; use FullyAssociative for a
	// fully-associative array.
	Assoc int
	// BlockBytes is the line size (power of two).
	BlockBytes int
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

// line is one way of a set: the block tag plus its LRU stamp. meta is
// the clock at the line's last use; 0 marks an invalid line (the clock is pre-incremented on every access, so a filled line
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
// miss, and the rest hit the line it left, which ends stamped as the
// last. It reports whether the first hit.
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
		c.touch(i, c.clock)
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
	if i >= 0 {
		c.touch(i, c.clock)
	}
	return i
}

// access advances the clock and probes for addr's block: a hit marks
// its line used, a miss fills a way. It returns the line's index
// and whether the probe hit.
//
//pbcheck:hotpath
func (c *Cache) access(addr uint64) (int, bool) {
	c.clock++
	block := addr >> c.blockBits
	if c.sets == 1 {
		if w := c.fa.find(c.lines, block); w >= 0 {
			c.touch(w, c.clock)
			return w, true
		}
		return c.fillAssoc(block, c.clock), false
	}
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if ln := &set[w]; ln.meta != 0 && ln.tag == block {
			ln.meta = c.clock
			return base + w, true
		}
	}
	return base + fill(set, block, c.clock), false
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
// invalid way, else the list's head (the smallest stamp), exactly the
// way fill's scan selects. It returns the way.
//
//pbcheck:hotpath
func (c *Cache) fillAssoc(block, stamp uint64) int {
	x := &c.fa
	var w int
	if n := len(x.free); n > 0 {
		w = int(x.free[n-1])
		x.free = x.free[:n-1]
	} else {
		w = int(x.head)
		x.evict(c.lines, w)
	}
	c.lines[w] = line{tag: block, meta: stamp}
	x.add(c.lines, w)
	return w
}

// fill evicts the least recently used way of the set and writes the
// block there with the given stamp, returning the way. Invalid lines
// carry stamp 0, so the smallest-stamp scan selects the first invalid
// way exactly as an explicit invalid-first pass would.
//
//pbcheck:hotpath
func fill(set []line, block, stamp uint64) int {
	victim, oldest := 0, set[0].meta
	for w := 1; w < len(set); w++ {
		if set[w].meta < oldest {
			victim, oldest = w, set[w].meta
		}
	}
	set[victim] = line{tag: block, meta: stamp}
	return victim
}

// lapInPlace writes the state a sequential warming lap over [start,
// end), start < end, leaves in the cache. The lap probes start and
// then every multiple of its stride, 1<<sh bytes, below end; unlike
// lap, it keeps whatever the cache held, and several probes may share
// a block. The access counters are kept; the clock advances by one per
// probe. A block's probes form a run: the first misses (unless the
// block was resident) and the rest hit the line it touched, so the
// line ends up stamped as the run's last probe.
//
// With blocks no smaller than the stride, the lap touches every block
// from start's to end-1's, in ascending order, so block b0+j is fill
// j>>log2(sets) of its set, and every fill carries a stamp above any
// the set held before. LRU evicts the smallest stamp, lowest way
// first, so a set that starts empty takes fill m in way m%ways and
// keeps only its last ways fills: those are written directly, for the
// whole cache at once when it was never touched (lapEmpty) and set by
// set otherwise (lapSets). A set that holds lines is walked fill by
// fill (lapFill) until it has taken ways fills. If none of them hit,
// they evicted every line the set held; fill m then lands where fill
// m-ways did, so each way takes the last fill congruent to the one it
// holds. A set where a lap block was already resident is walked to the
// end. Blocks smaller than the stride take one real access per probe
// (walkRuns).
//
//pbcheck:hotpath
func (c *Cache) lapInPlace(start, end uint64, sh uint) {
	q := start >> sh
	n := ceilShift(end, sh) - q
	if c.blockBits < sh {
		c.walkRuns(start, sh, q, n)
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
	}
	setBits := uint(bits.Len64(c.setMask))
	if c.clock == 0 {
		c.lapEmpty(l, setBits)
	} else {
		c.lapSets(l, setBits)
	}
	c.clock += n
	if c.sets == 1 {
		c.fa.rebuild(c.lines)
	}
}

// lapEmpty is lapInPlace's closed form on a cache that was never
// touched. Every set is empty, so only the last ways fills of each
// survive: those are the lap's last sets*ways blocks, and block j,
// fill j>>setBits of its set, lands in way (j>>setBits)%ways. They are
// written a row of sets at a time.
//
//pbcheck:hotpath
func (c *Cache) lapEmpty(l lapRuns, setBits uint) {
	ways := uint64(c.ways)
	for j := l.nb - min(l.nb, uint64(c.sets)*ways); j < l.nb; {
		m := j >> setBits
		w := int(m % ways)
		for last := min(l.nb, (m+1)<<setBits); j < last; j++ {
			c.lines[int((l.b0+j)&c.setMask)*c.ways+w] = line{tag: l.b0 + j, meta: l.stamp(j)}
		}
	}
}

// lapSets is lapInPlace's set-by-set form on a cache that may hold
// lines.
//
//pbcheck:hotpath
func (c *Cache) lapSets(l lapRuns, setBits uint) {
	ways := uint64(c.ways)
	for r := uint64(0); r < min(l.nb, uint64(c.sets)); r++ {
		base := int((l.b0+r)&c.setMask) * c.ways
		set := c.lines[base : base+c.ways]
		fills := (l.nb-r-1)>>setBits + 1
		if emptySet(set) {
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
}

// lapRuns locates the runs of an in-place lap (see lapInPlace) over a
// cache whose blocks are 1<<d probes long: block b0+j, j < nb, holds
// the run of probes from (b0+j)<<d - q (probe 0 for j = 0) to the next
// block's first probe, or to probe n-1 for the last block. clock is
// the cache's clock before the lap, so probe i is stamped clock+i+1.
type lapRuns struct {
	b0, nb, q, n, clock uint64
	d                   uint
}

// stamp returns the stamp the lap leaves on block b0+j's line: its
// run's last probe. The receiver is a pointer: with a value receiver
// the inlined call copies l on the stack on every fill, and the lap's
// speed then depends on the call path above it (one path ran it ~2.5×
// slower).
//
//pbcheck:hotpath
func (l *lapRuns) stamp(j uint64) uint64 {
	if j == l.nb-1 {
		return l.clock + l.n
	}
	return l.clock + (l.b0+j+1)<<l.d - l.q
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

// lapFill is one block's run of an in-place lap on its set: a resident
// line hits and takes the stamp; otherwise the block fills the
// smallest-stamp way. It reports whether the block was resident.
//
//pbcheck:hotpath
func (c *Cache) lapFill(set []line, block, stamp uint64) bool {
	if i := c.find(block); i >= 0 {
		c.touch(i, stamp)
		return true
	}
	if c.sets == 1 {
		c.fillAssoc(block, stamp)
	} else {
		fill(set, block, stamp)
	}
	return false
}

// walkRuns is lapInPlace by one real access per probe (its n probes
// from q on), for blocks smaller than the stride: no two probes share
// a block there, so every run is one probe long.
//
//pbcheck:hotpath
func (c *Cache) walkRuns(start uint64, sh uint, q, n uint64) {
	stats := c.stats
	c.Access(start)
	for i := uint64(1); i < n; i++ {
		c.Access((q + i) << sh)
	}
	c.stats = stats
}

// lap writes the state a sequential warming lap over [start, end),
// start < end, leaves in the cache when it starts empty; a cache that
// was touched since it was built or flushed is emptied first (the
// access counters are kept). The lap probes start and then every
// multiple of its stride, 1<<lapShift(unit) bytes, below end, and a
// probe of address a touches block a>>unit (unit, never below the
// block size's log2, is the line size's log2 for a cache, the page
// size's for a TLB, whose blocks are page numbers). It is lapInPlace
// on the emptied cache over addresses shifted right by u = unit -
// log2(block size): the shifted probe a>>u touches the same block, and
// since 1<<u divides the stride, the shifted probes are exactly those
// of the lap over [start>>u, ⌈end/2^u⌉) at the stride shifted by u.
//
//pbcheck:hotpath
func (c *Cache) lap(start, end uint64, unit uint) {
	c.empty()
	u := unit - c.blockBits
	c.lapInPlace(start>>u, ceilShift(end, u), lapShift(unit)-u)
}

// empty invalidates every line of a cache touched since it was built
// or flushed, keeping the access counters.
func (c *Cache) empty() {
	if c.clock != 0 {
		stats := c.stats
		c.Flush()
		c.stats = stats
	}
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
