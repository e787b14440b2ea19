package cache

import "fmt"

// TLB is a translation lookaside buffer: a set-associative array of
// page-number tags. Table 8 parameterizes its entry count,
// associativity, page size and miss latency.
type TLB struct {
	pageBits uint
	cache    *Cache
}

// newTLB builds a TLB with the given number of entries, associativity
// (FullyAssociative allowed) and page size in bytes (power of two),
// taking its arrays from spare as newCache takes them.
func newTLB(entries, assoc int, pageBytes uint64, spare spareArrays) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("cache: TLB entries %d invalid", entries)
	}
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("cache: page size %d is not a power of two", pageBytes)
	}
	pageBits := uint(0)
	for uint64(1)<<pageBits < pageBytes {
		pageBits++
	}
	// Reuse the cache array with 1-byte "blocks" over page numbers.
	c, err := newCache(Config{SizeBytes: entries, Assoc: assoc, BlockBytes: 1}, spare)
	if err != nil {
		return nil, fmt.Errorf("cache: TLB geometry: %w", err)
	}
	return &TLB{pageBits: pageBits, cache: c}, nil
}

// Access translates addr, allocating the page entry on a miss, and
// reports whether the translation hit.
//
//pbcheck:hotpath
func (t *TLB) Access(addr uint64) bool {
	return t.cache.Access(addr >> t.pageBits)
}

// Stats returns access counters.
func (t *TLB) Stats() Stats { return t.cache.Stats() }

// PageBytes returns the configured page size.
func (t *TLB) PageBytes() uint64 { return 1 << t.pageBits }

// Entries returns the TLB capacity in page entries.
func (t *TLB) Entries() int { return t.cache.sets * t.cache.ways }

// Flush invalidates all translations and clears statistics.
func (t *TLB) Flush() { t.cache.Flush() }
