package cache

import (
	"fmt"
	"reflect"
	"slices"
)

// This file compares hierarchies field by field. The tests of this
// package check the closed-form prewarm against the per-block walk
// with it, and those of the simulator check functional warming against
// the per-instruction loop it replaced.

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
// far more than the laps under test. A single-set cache's index is
// not compared field by field: where a tag sits in its table depends
// on the order tags arrived in, not only on the lines. Each index is
// instead checked against a rebuild from its own lines.
func diffCache(a, b *Cache) string {
	if len(a.lines) != len(b.lines) {
		return fmt.Sprintf("%d lines != %d", len(a.lines), len(b.lines))
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return fmt.Sprintf("line %d (set %d way %d): %+v != %+v", i, i/a.ways, i%a.ways, a.lines[i], b.lines[i])
		}
	}
	for _, c := range []*Cache{a, b} {
		if d := checkIndex(c); d != "" {
			return "index: " + d
		}
	}
	x, y := *a, *b
	x.lines, y.lines = nil, nil
	x.fa, y.fa = assocIndex{}, assocIndex{}
	if !reflect.DeepEqual(x, y) {
		return fmt.Sprintf("%+v != %+v", x, y)
	}
	return ""
}

// checkIndex reports how a single-set cache's index differs from the
// one rebuild derives from its lines, or "" when it agrees: every
// valid way is found at its tag and no other, the recency list runs
// through the valid ways in ascending (stamp, way) order, and the
// invalid ways are free, highest first.
func checkIndex(c *Cache) string {
	if c.sets != 1 {
		return ""
	}
	want := newAssocIndex(c.ways, nil)
	want.rebuild(c.lines)
	valid := 0
	for w, ln := range c.lines {
		if ln.meta == 0 {
			continue
		}
		valid++
		if got := c.fa.find(c.lines, ln.tag); got != w {
			return fmt.Sprintf("tag %#x found at way %d, held by way %d", ln.tag, got, w)
		}
	}
	used := 0
	for _, s := range c.fa.slots {
		if s != 0 {
			used++
		}
	}
	if used != valid {
		return fmt.Sprintf("%d slots used for %d valid ways", used, valid)
	}
	if got, w := recency(&c.fa), recency(&want); !slices.Equal(got, w) {
		return fmt.Sprintf("recency %v, rebuilt %v", got, w)
	}
	if !slices.Equal(c.fa.free, want.free) {
		return fmt.Sprintf("free ways %v, rebuilt %v", c.fa.free, want.free)
	}
	return ""
}

// recency lists an index's ways from head to tail, checking the back
// links on the way.
func recency(x *assocIndex) []int32 {
	var ways []int32
	prev := int32(-1)
	for w := x.head; w >= 0 && len(ways) <= len(x.prev); w = x.next[w] {
		if x.prev[w] != prev {
			return append(ways, -2) // a broken back link
		}
		ways = append(ways, w)
		prev = w
	}
	if prev != x.tail {
		ways = append(ways, -3) // the tail is not the last way
	}
	return ways
}
